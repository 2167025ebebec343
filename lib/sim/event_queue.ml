(* Array-backed binary min-heap on (time, seq), payload tid. The three
   parallel arrays keep times unboxed and the steady-state pop+add cycle
   allocation-free; with a handful of live threads the sift depth is 1-2
   and the whole structure stays in cache. *)

type t = {
  mutable time : float array;
  mutable seq : int array;
  mutable tid : int array;
  mutable size : int;
}

let create () =
  { time = Array.make 64 0.; seq = Array.make 64 0; tid = Array.make 64 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Strict (time, seq) order: the monotone sequence number breaks ties so
   equal times pop in schedule order (determinism). Both helpers sit in
   the sift loops of every add and pop, so they are inlined; each time is
   read once. *)
let[@inline] wins t i j =
  let ti = t.time.(i) and tj = t.time.(j) in
  ti < tj || (ti = tj && t.seq.(i) < t.seq.(j))

let[@inline] swap t i j =
  let time = t.time and seq = t.seq and tid = t.tid in
  let tm = time.(i) in
  time.(i) <- time.(j);
  time.(j) <- tm;
  let s = seq.(i) in
  seq.(i) <- seq.(j);
  seq.(j) <- s;
  let d = tid.(i) in
  tid.(i) <- tid.(j);
  tid.(j) <- d

let grow t =
  let cap = Array.length t.time in
  let cap' = 2 * cap in
  let time = Array.make cap' 0. and seq = Array.make cap' 0 and tid = Array.make cap' 0 in
  Array.blit t.time 0 time 0 cap;
  Array.blit t.seq 0 seq 0 cap;
  Array.blit t.tid 0 tid 0 cap;
  t.time <- time;
  t.seq <- seq;
  t.tid <- tid

let add t ~time ~seq ~tid =
  if t.size = Array.length t.time then grow t;
  let i = t.size in
  t.time.(i) <- time;
  t.seq.(i) <- seq;
  t.tid.(i) <- tid;
  t.size <- t.size + 1;
  let i = ref i in
  while !i > 0 && wins t !i ((!i - 1) / 2) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let min_time t = if t.size = 0 then infinity else t.time.(0)

(* Returns the earliest tid, or -1 when empty. *)
let pop_min t =
  if t.size = 0 then -1
  else begin
    let result = t.tid.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      t.time.(0) <- t.time.(n);
      t.seq.(0) <- t.seq.(n);
      t.tid.(0) <- t.tid.(n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        let r = l + 1 in
        let best = ref !i in
        if l < n && wins t l !best then best := l;
        if r < n && wins t r !best then best := r;
        if !best = !i then continue := false
        else begin
          swap t !i !best;
          i := !best
        end
      done
    end;
    result
  end

let clear t = t.size <- 0
