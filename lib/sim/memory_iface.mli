(** What the engine needs from a memory system.

    The engine is generic over this record so it can be tested against a
    flat UMA memory and run in production against the full
    machine/VM/NUMA stack (wired up by [Numa_system]).

    [access] performs [count] back-to-back references by one CPU to one
    page, resolving faults as needed, and returns the value: for reads,
    the content observed; for writes, the stored value echoed.

    The virtual time the call consumed is not returned but written into
    [costs], a scratch record the memory owns: [user_ns] for the
    references themselves and [system_ns] for any kernel work (faults,
    page copies) they triggered. Every call overwrites both fields, so a
    caller that makes several accesses must read [costs] after each one.
    The record is all floats, hence flat: handing the costs back this
    way allocates nothing. *)

type costs = { mutable user_ns : float; mutable system_ns : float }

type t = {
  access :
    cpu:int ->
    tid:int ->
    vpage:int ->
    access:Numa_machine.Access.t ->
    count:int ->
    value:int ->
    int;
  costs : costs;  (** written by every [access] call *)
}

val costs : unit -> costs
(** A fresh scratch record, both fields zero, for a memory to own. *)

val flat : Numa_machine.Config.t -> t
(** A uniform-memory-access reference implementation: every reference at
    local speed, no faults, contents in a plain table. Used by the engine's
    own unit tests. *)
