(* Outside-in layer trace of one [System.run].

   The simulator already exposes three boundary hooks: the engine's turn
   hook (start of every scheduling turn), the system's access hook (end of
   every reference batch) and the obs hub (every typed event once a sink is
   attached). Each call marks a boundary; the host time since the previous
   boundary is charged to the layer that owns the code which ran in it.
   The rule is: an interval is charged to the owner of the boundary that
   ends it, except that the stretch from a core event to the next
   system boundary is the tail of the fault path and stays with core.

   Boundaries go into a preallocated int array as packed
   [(delta_ns lsl 4) lor layer] words, so marking allocates nothing. When
   the array fills, and at the end of the run, it is folded into per-layer
   totals. GC spans, read in-process from Runtime_events on the same
   CLOCK_MONOTONIC clock, are cut out of whichever interval they fell in
   and charged to [gc]. Folding time is left out of every interval, so it
   shows up as unattributed run time. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let sim = 0
let system = 1
let machine = 2
let core = 3
let obs = 4
let apps = 5
let other = 6
let gc = 7

(* Page-table code, a part of [machine] kept apart to price replication. *)
let pt = 8
let n_layers = 9
let layer_names =
  [| "sim"; "system"; "machine"; "core"; "obs"; "apps"; "other"; "gc"; "pt" |]

(* Outermost GC spans seen on the ring and not folded yet. *)
type gc_state = {
  mutable depth : int;
  mutable open_at : int;
  mutable spans : (int * int) list;  (** newest first *)
  mutable lost : int;
}

type t = {
  buf : int array;
  mutable n : int;
  mutable chunk_start : int;  (** start of the interval [buf.(0)] closes *)
  mutable last : int;
  mutable last_layer : int;
  self_ns : int array;
  mutable run_ns : int;
  gcs : gc_state;
  poll : unit -> unit;
}

let create () =
  Runtime_events.start ();
  let gcs = { depth = 0; open_at = 0; spans = []; lost = 0 } in
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  let runtime_begin _ring t _phase =
    if gcs.depth = 0 then gcs.open_at <- ts t;
    gcs.depth <- gcs.depth + 1
  in
  let runtime_end _ring t _phase =
    (* The ring can open with the end of a phase begun before [start]. *)
    if gcs.depth > 0 then begin
      gcs.depth <- gcs.depth - 1;
      if gcs.depth = 0 then gcs.spans <- (gcs.open_at, ts t) :: gcs.spans
    end
  in
  let lost_events _ring n = gcs.lost <- gcs.lost + n in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  in
  let cursor = Runtime_events.create_cursor None in
  {
    buf = Array.make (1 lsl 20) 0;
    n = 0;
    chunk_start = 0;
    last = 0;
    last_layer = sim;
    self_ns = Array.make n_layers 0;
    run_ns = 0;
    gcs;
    poll = (fun () -> ignore (Runtime_events.read_poll cursor callbacks None));
  }

(* Fold the buffered intervals into [self_ns], moving GC time out of the
   intervals each GC span overlaps. Spans and intervals are both disjoint
   and in time order. *)
let fold t =
  t.poll ();
  let spans = ref (List.rev t.gcs.spans) in
  t.gcs.spans <- [];
  let a = ref t.chunk_start in
  for i = 0 to t.n - 1 do
    let w = t.buf.(i) in
    let b = !a + (w lsr 4) in
    let gc_ns = ref 0 in
    let rec cut = function
      | (s, e) :: rest when s < b ->
          gc_ns := !gc_ns + max 0 (min e b - max s !a);
          if e <= b then cut rest else (s, e) :: rest
      | l -> l
    in
    spans := cut !spans;
    let layer = w land 15 in
    t.self_ns.(layer) <- t.self_ns.(layer) + (b - !a) - !gc_ns;
    t.self_ns.(gc) <- t.self_ns.(gc) + !gc_ns;
    a := b
  done;
  t.n <- 0

let mark t layer =
  let ts = now () in
  let charged = if layer = system && t.last_layer = core then core else layer in
  t.buf.(t.n) <- ((ts - t.last) lsl 4) lor charged;
  t.n <- t.n + 1;
  t.last <- ts;
  t.last_layer <- layer;
  if t.n = Array.length t.buf then begin
    fold t;
    let resumed = now () in
    t.chunk_start <- resumed;
    t.last <- resumed
  end

(* Returns the run's start instant, for {!finish_run}. *)
let start_run t =
  t.poll ();
  t.gcs.spans <- [];
  t.gcs.depth <- 0;
  let ts = now () in
  t.chunk_start <- ts;
  t.last <- ts;
  t.last_layer <- sim;
  ts

(* The stretch after the engine's last turn is the system assembling its
   report, hence the closing [system] boundary. *)
let finish_run t ~started =
  mark t system;
  fold t;
  t.run_ns <- t.run_ns + (now () - started)

let self_s t layer = float_of_int t.self_ns.(layer) *. 1e-9
let run_s t = float_of_int t.run_ns *. 1e-9
let lost_events t = t.gcs.lost

(* Run time in no layer: the [other] events' intervals plus folding. *)
let unattributed_s t =
  let attributed = ref 0 in
  Array.iteri (fun i v -> if i <> other then attributed := !attributed + v) t.self_ns;
  float_of_int (t.run_ns - !attributed) *. 1e-9
