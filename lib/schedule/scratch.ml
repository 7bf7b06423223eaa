(* One slot per domain. [busy] is tested and set with no allocation or
   call in between, so no other systhread of the domain can run there. *)
type 'a slot = { mutable set : 'a; mutable busy : bool }

type 'a t = {
  key : 'a slot Domain.DLS.key;
  create : unit -> 'a;
  words : 'a -> int;
  clear : 'a -> unit;
}

let cap_words = 1 lsl 21

let make ~create ~words ~clear =
  {
    key = Domain.DLS.new_key (fun () -> { set = create (); busy = false });
    create;
    words;
    clear;
  }

let use t f =
  let slot = Domain.DLS.get t.key in
  if slot.busy then f (t.create ())
  else begin
    slot.busy <- true;
    Fun.protect
      ~finally:(fun () ->
        let s = slot.set in
        if t.words s > cap_words then slot.set <- t.create () else t.clear s;
        slot.busy <- false)
      (fun () -> f slot.set)
  end
