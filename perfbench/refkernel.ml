(* A fixed host-speed reference, sampled before every measured op.

   On a shared host the machine's speed drifts by up to a quarter over
   minutes, and the simulator's speed follows it: across runs, its median
   pass time and this kernel's median sample time correlate at 0.85-0.93.
   End-to-end host times are therefore reported at the reference speed,
   so that the drift between runs cancels out.

   The kernel does the kind of work the simulator's hot path does: a
   binary min-heap of (time, id) pairs as small as the engine's ready
   queue, and scattered reads and writes over a table larger than the
   caches. The table lives outside the OCaml heap and the loop allocates
   nothing, so the kernel neither shows in the heap metrics nor depends
   on the GC settings; it shares no code with the simulator. *)

let words = 1 lsl 20

(* Creating it nudges the GC once, so it is built at the first sample,
   after the heap peak has been read. *)
let table =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
     for i = 0 to words - 1 do
       a.{i} <- i * 7919
     done;
     a)

let slots = 8
let times = Float.Array.make slots 0.
let ids = Array.make slots 0

(* Replace the heap's minimum by [(minimum + delta, id)] and sift it down. *)
let replace_min delta id =
  let t = Float.Array.get times 0 +. float_of_int delta in
  let i = ref 0 and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= slots then fin := true
    else begin
      let c =
        if l + 1 < slots && Float.Array.get times (l + 1) < Float.Array.get times l then
          l + 1
        else l
      in
      if Float.Array.get times c < t then begin
        Float.Array.set times !i (Float.Array.get times c);
        ids.(!i) <- ids.(c);
        i := c
      end
      else fin := true
    end
  done;
  Float.Array.set times !i t;
  ids.(!i) <- id

(* One sample's host time on the quiet 2-vCPU VM the benchmark was
   defined on. *)
let nominal_s = 0.01

(* One sample: host seconds for a fixed amount of work. *)
let sample () =
  let a = Lazy.force table in
  for i = 0 to slots - 1 do
    Float.Array.set times i (float_of_int i);
    ids.(i) <- i
  done;
  let t0 = Tracer.now () in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 120_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let id = ids.(0) in
    acc := !acc + a.{(!x * 0x9E3779B1) land (words - 1)};
    let j = (!x lsr 3) land (words - 1) in
    a.{j} <- a.{j} + id;
    replace_min (!x land 1023) id
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Tracer.now () - t0) *. 1e-9
