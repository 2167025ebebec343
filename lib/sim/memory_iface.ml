open Numa_machine

type costs = { mutable user_ns : float; mutable system_ns : float }

type t = {
  access :
    cpu:int -> tid:int -> vpage:int -> access:Access.t -> count:int -> value:int -> int;
  costs : costs;
}

let costs () = { user_ns = 0.; system_ns = 0. }

let flat config =
  let cells : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let costs = costs () in
  let access ~cpu:_ ~tid:_ ~vpage ~access ~count ~value =
    costs.user_ns <- Cost.references_ns config ~access ~where:Location.Local_here ~count;
    costs.system_ns <- 0.;
    match access with
    | Access.Store ->
        Hashtbl.replace cells vpage value;
        value
    | Access.Load -> Option.value (Hashtbl.find_opt cells vpage) ~default:0
  in
  { access; costs }
