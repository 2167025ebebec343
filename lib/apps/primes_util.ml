let isqrt n =
  if n < 0 then invalid_arg "isqrt: negative";
  if n < 2 then n
  else begin
    let s = ref (int_of_float (sqrt (float_of_int n))) in
    while !s * !s > n do
      decr s
    done;
    while (!s + 1) * (!s + 1) <= n do
      incr s
    done;
    !s
  end

(* Bit i stands for the odd number 2i + 3 — the layout of primes3's
   simulated bit vector — and is set once that number is known composite.
   Padding bits past [n_bits] in the last byte are set too, so whole-byte
   counts never see them as primes. *)
type odd_sieve = { n_bits : int; composite : Bytes.t }

let odd_sieve ~n_bits =
  if n_bits < 0 then invalid_arg "Primes_util.odd_sieve: negative n_bits";
  let composite = Bytes.make ((n_bits + 7) / 8) '\000' in
  let mark i =
    let b = i lsr 3 in
    Bytes.unsafe_set composite b
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get composite b) lor (1 lsl (i land 7))))
  in
  for i = n_bits to (8 * Bytes.length composite) - 1 do
    mark i
  done;
  let i = ref 0 in
  while
    let p = (2 * !i) + 3 in
    p * p <= (2 * n_bits) + 1
  do
    if Char.code (Bytes.unsafe_get composite (!i lsr 3)) land (1 lsl (!i land 7)) = 0
    then begin
      let p = (2 * !i) + 3 in
      let j = ref (((p * p) - 3) / 2) in
      while !j < n_bits do
        mark !j;
        j := !j + p
      done
    end;
    incr i
  done;
  { n_bits; composite }

let is_odd_prime s i = Char.code (Bytes.get s.composite (i lsr 3)) land (1 lsl (i land 7)) = 0

let popcount8 b =
  let b = b - ((b lsr 1) land 0x55) in
  let b = (b land 0x33) + ((b lsr 2) land 0x33) in
  (b + (b lsr 4)) land 0x0f

let odd_primes_in s ~lo_bit ~hi_bit =
  let lo_bit = max lo_bit 0 and hi_bit = min hi_bit (s.n_bits - 1) in
  let count = ref 0 in
  let i = ref lo_bit in
  while !i <= hi_bit && !i land 7 <> 0 do
    if is_odd_prime s !i then incr count;
    incr i
  done;
  while !i + 7 <= hi_bit do
    count := !count + 8 - popcount8 (Char.code (Bytes.unsafe_get s.composite (!i lsr 3)));
    i := !i + 8
  done;
  while !i <= hi_bit do
    if is_odd_prime s !i then incr count;
    incr i
  done;
  !count

let primes_upto n =
  if n < 2 then [||]
  else begin
    let s = odd_sieve ~n_bits:((n - 1) / 2) in
    let out = Array.make (1 + odd_primes_in s ~lo_bit:0 ~hi_bit:(s.n_bits - 1)) 2 in
    let k = ref 1 in
    for i = 0 to s.n_bits - 1 do
      if is_odd_prime s i then begin
        out.(!k) <- (2 * i) + 3;
        incr k
      end
    done;
    out
  end

(* Prime p marks odd multiples p*p, p*(p+2), ... i.e. values p*p + 2kp. *)
let count_odd_multiples_in_bit_range ~p ~lo_bit ~hi_bit ~limit =
  if p < 3 then invalid_arg "count_odd_multiples_in_bit_range: p must be odd >= 3";
  let value_of_bit i = (2 * i) + 3 in
  let lo_v = value_of_bit lo_bit and hi_v = min (value_of_bit hi_bit) limit in
  let first = p * p in
  if first > hi_v then 0
  else begin
    (* Smallest odd multiple of p that is >= max(first, lo_v). *)
    let start = max first lo_v in
    let m = (start + p - 1) / p in
    let m = if m mod 2 = 0 then m + 1 else m in
    let m = max m p in
    let first_val = m * p in
    if first_val > hi_v then 0 else ((hi_v - first_val) / (2 * p)) + 1
  end
