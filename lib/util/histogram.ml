module Int_map = Map.Make (Int)

(* Keys in [0, dense_limit) are counted in [dense], indexed by key, so
   recording one is an array store; -1 marks a key never recorded, which
   keeps [add_many k 0] listing [k]. Negative and larger keys go to the
   [sparse] map. The limit bounds the dense array at 512 KiB. *)
let dense_limit = 1 lsl 16

type t = {
  mutable dense : int array;
  mutable top : int;  (** largest recorded dense key; -1 if none *)
  mutable sparse : int Int_map.t;
  mutable total : int;
}

let create () = { dense = [||]; top = -1; sparse = Int_map.empty; total = 0 }

let grow t key =
  let len = Array.length t.dense in
  let dense = Array.make (min dense_limit (max (key + 1) (max 64 (2 * len)))) (-1) in
  Array.blit t.dense 0 dense 0 len;
  t.dense <- dense

let add_many t key n =
  if n < 0 then invalid_arg "Histogram.add_many: negative count";
  if key >= 0 && key < dense_limit then begin
    if key >= Array.length t.dense then grow t key;
    let c = t.dense.(key) in
    t.dense.(key) <- (if c < 0 then n else c + n);
    if key > t.top then t.top <- key
  end
  else begin
    let current = Option.value (Int_map.find_opt key t.sparse) ~default:0 in
    t.sparse <- Int_map.add key (current + n) t.sparse
  end;
  t.total <- t.total + n

let add t key = add_many t key 1

let count t key =
  if key >= 0 && key < dense_limit then
    if key < Array.length t.dense then max 0 t.dense.(key) else 0
  else Option.value (Int_map.find_opt key t.sparse) ~default:0

let total t = t.total

(* Recorded (key, count) pairs in increasing key order. *)
let fold f t acc =
  let neg, _, big = Int_map.split 0 t.sparse in
  let acc = ref (Int_map.fold f neg acc) in
  for k = 0 to t.top do
    let n = t.dense.(k) in
    if n >= 0 then acc := f k n !acc
  done;
  Int_map.fold f big !acc

let to_sorted_list t = List.rev (fold (fun k n acc -> (k, n) :: acc) t [])

let keys t = List.map fst (to_sorted_list t)

let mean t =
  if t.total = 0 then 0.
  else
    let weighted = fold (fun k n acc -> acc +. (float_of_int k *. float_of_int n)) t 0. in
    weighted /. float_of_int t.total

let max_key t = fold (fun k _ _ -> k) t 0

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p must be in [0,100]";
  if t.total = 0 then 0
  else begin
    (* Nearest-rank: the smallest key whose cumulative count reaches
       ceil(p/100 * total); p = 0 gives the smallest recorded key. *)
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.total))) in
    let result = ref 0 and cum = ref 0 and found = ref false in
    fold
      (fun k n () ->
        if not !found then begin
          cum := !cum + n;
          if !cum >= rank then begin
            result := k;
            found := true
          end
        end)
      t ();
    !result
  end

let pp ppf t =
  List.iter
    (fun (k, n) -> Format.fprintf ppf "%d: %d@." k n)
    (to_sorted_list t)
