(* Unit and property tests for the util library. *)

module Prng = Numa_util.Prng
module Bitvec = Numa_util.Bitvec
module Stats = Numa_util.Stats
module Histogram = Numa_util.Histogram
module Text_table = Numa_util.Text_table
module Dist = Numa_util.Dist

(* --- prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123L and b = Prng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_bounds () =
  let t = Prng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in t ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in inclusive range" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 100 do
    let f = Prng.float t 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5)
  done

let test_prng_split_independent () =
  let parent = Prng.create ~seed:99L in
  let child = Prng.split parent in
  (* The two streams should not be identical. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Prng.next_int64 parent = Prng.next_int64 child then incr same
  done;
  Alcotest.(check bool) "split stream differs" true (!same < 20)

let test_prng_copy () =
  let a = Prng.create ~seed:5L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:11L in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle_in_place t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* Streams recorded from the boxed-[int64] generator this one replaced:
   per seed, three [next_int64]; [int] at bounds 1, 7, 1000, 2^40; three
   [float 1.0] (as IEEE bits); two draws of a [split] child; one parent
   draw after the split; two draws of a [copy]; the original's next draw. *)
let prng_golden =
  [
    ( 0L,
      [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0x0L; 0x5L; 0x20aL;
        0xaf87d14cb8L; 0x3fe8b082675922d5L; 0x3fcf72bc4820e4c4L; 0x3fee77091186d196L;
        0xd70528ba4b0b9233L; 0xb45e8b117a35ff5eL; 0xc2d326e0055bdef6L; 0x8e1f7555983aa92fL;
        0x8621a03fe0bbdb7bL; 0x8621a03fe0bbdb7bL ] );
    ( 42L,
      [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x0L; 0x1L; 0x109L;
        0xc7114ddb57L; 0x3fe99ec6bdd3d3c5L; 0x3fd5c16e1dc2cf5eL; 0x3fe3ca9ae7052feeL;
        0xd4403a5bfe881589L; 0x12bacb95e5801544L; 0x7e348a0e451650beL; 0x851f977347ed6db7L;
        0x836ded897f3e46e6L; 0x836ded897f3e46e6L ] );
    ( -1L,
      [ 0xe4d971771b652c20L; 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L; 0x0L; 0x5L; 0x10cL;
        0x3e00820fe9L; 0x3fd017690e28e7a0L; 0x3fe89fd4e102adc1L; 0x3f88f287f3ddeb40L;
        0xa85947e190befc45L; 0xba5a8267e74ba304L; 0xce755952d3025da7L; 0xdd90e10f6f7c1c8aL;
        0x1c9558bd006badbL; 0x1c9558bd006badbL ] );
  ]

let test_prng_golden_streams () =
  List.iter
    (fun (seed, want) ->
      let p = Prng.create ~seed in
      let a = List.init 3 (fun _ -> Prng.next_int64 p) in
      let b = List.map (fun bound -> Int64.of_int (Prng.int p bound)) [ 1; 7; 1000; 1 lsl 40 ] in
      let c = List.init 3 (fun _ -> Int64.bits_of_float (Prng.float p 1.0)) in
      let child = Prng.split p in
      let d = List.init 2 (fun _ -> Prng.next_int64 child) in
      let e = [ Prng.next_int64 p ] in
      let cp = Prng.copy p in
      let f = [ Prng.next_int64 cp; Prng.next_int64 cp; Prng.next_int64 p ] in
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %Ld" seed)
        want
        (a @ b @ c @ d @ e @ f))
    prng_golden

(* Gc.minor_words is exact for a given binary: [Prng.int] keeps the
   generator state unboxed, so a draw allocates nothing. *)
let test_prng_int_allocation () =
  let p = Prng.create ~seed:9L in
  let draws = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Prng.int p 1000))
  done;
  let words = Gc.minor_words () -. before in
  if words >= float_of_int draws then
    Alcotest.failf "Prng.int allocated %.0f minor words over %d draws (gate: < 1/draw)"
      words draws

let test_prng_invalid () =
  let t = Prng.create ~seed:1L in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose t [||]))

(* --- bitvec --------------------------------------------------------------- *)

let test_bitvec_basic () =
  let v = Bitvec.create 70 in
  Alcotest.(check int) "length" 70 (Bitvec.length v);
  Alcotest.(check bool) "initially clear" false (Bitvec.get v 33);
  Bitvec.set v 33;
  Alcotest.(check bool) "set" true (Bitvec.get v 33);
  Bitvec.clear v 33;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 33);
  Bitvec.assign v 69 true;
  Alcotest.(check int) "popcount" 1 (Bitvec.popcount v)

let test_bitvec_fill_popcount () =
  let v = Bitvec.create 13 in
  Bitvec.fill v true;
  Alcotest.(check int) "all set (partial last byte)" 13 (Bitvec.popcount v);
  Bitvec.fill v false;
  Alcotest.(check int) "all clear" 0 (Bitvec.popcount v)

let test_bitvec_union_equal () =
  let a = Bitvec.create 20 and b = Bitvec.create 20 in
  Bitvec.set a 1;
  Bitvec.set b 2;
  Bitvec.union_into ~dst:a b;
  Alcotest.(check bool) "union has both" true (Bitvec.get a 1 && Bitvec.get a 2);
  let c = Bitvec.create 20 in
  Bitvec.set c 1;
  Bitvec.set c 2;
  Alcotest.(check bool) "equal" true (Bitvec.equal a c)

let test_bitvec_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.get v 8))

let prop_bitvec_model =
  QCheck.Test.make ~name:"bitvec agrees with bool array" ~count:200
    QCheck.(pair (int_bound 100) (list (pair (int_bound 100) bool)))
    (fun (size, ops) ->
      let size = size + 1 in
      let v = Bitvec.create size and model = Array.make size false in
      List.iter
        (fun (i, b) ->
          let i = i mod size in
          Bitvec.assign v i b;
          model.(i) <- b)
        ops;
      let ok = ref true in
      Array.iteri (fun i b -> if Bitvec.get v i <> b then ok := false) model;
      !ok && Bitvec.popcount v = Array.fold_left (fun a b -> if b then a + 1 else a) 0 model)

(* --- stats ----------------------------------------------------------------- *)

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Stats.total s);
  Alcotest.(check (float 1e-9)) "variance (unbiased)" (32. /. 7.) (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "mean of empty" 0. (Stats.mean s);
  Alcotest.(check (float 0.)) "variance of empty" 0. (Stats.variance s)

let test_stats_helpers () =
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.ratio ~num:1. ~den:2.);
  Alcotest.(check (float 1e-9)) "ratio by zero" 0. (Stats.ratio ~num:1. ~den:0.);
  Alcotest.(check (float 1e-9)) "percent" 50. (Stats.percent ~num:1. ~den:2.)

(* --- histogram ---------------------------------------------------------------- *)

let test_histogram () =
  let h = Histogram.create () in
  Histogram.add h 3;
  Histogram.add h 3;
  Histogram.add_many h 7 5;
  Alcotest.(check int) "count 3" 2 (Histogram.count h 3);
  Alcotest.(check int) "count 7" 5 (Histogram.count h 7);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 99);
  Alcotest.(check int) "total" 7 (Histogram.total h);
  Alcotest.(check (list int)) "keys sorted" [ 3; 7 ] (Histogram.keys h);
  Alcotest.(check (list (pair int int))) "sorted list" [ (3, 2); (7, 5) ]
    (Histogram.to_sorted_list h)

let test_histogram_mean_percentile () =
  let h = Histogram.create () in
  (* Totality on the empty histogram: every percentile (including the
     boundary ranks) and the mean are defined values, never exceptions. *)
  List.iter
    (fun p -> Alcotest.(check int) "empty percentile" 0 (Histogram.percentile h p))
    [ 0.; 50.; 100. ];
  Alcotest.(check int) "empty max key" 0 (Histogram.max_key h);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Histogram.mean h);
  Alcotest.(check int) "empty total" 0 (Histogram.total h);
  Histogram.add_many h 1 50;
  Histogram.add_many h 2 30;
  Histogram.add_many h 10 19;
  Histogram.add h 100;
  (* 100 samples: 50 ones, 30 twos, 19 tens, 1 hundred. *)
  Alcotest.(check int) "p0 is smallest key" 1 (Histogram.percentile h 0.);
  Alcotest.(check int) "p50" 1 (Histogram.percentile h 50.);
  Alcotest.(check int) "p80" 2 (Histogram.percentile h 80.);
  Alcotest.(check int) "p99" 10 (Histogram.percentile h 99.);
  Alcotest.(check int) "p100 is largest key" 100 (Histogram.percentile h 100.);
  Alcotest.(check int) "max key" 100 (Histogram.max_key h);
  let expected_mean =
    ((1. *. 50.) +. (2. *. 30.) +. (10. *. 19.) +. 100.) /. 100.
  in
  Alcotest.(check (float 1e-9)) "mean" expected_mean (Histogram.mean h)

let test_histogram_percentile_invalid () =
  let h = Histogram.create () in
  Histogram.add h 1;
  Alcotest.check_raises "p > 100"
    (Invalid_argument "Histogram.percentile: p must be in [0,100]") (fun () ->
      ignore (Histogram.percentile h 100.1));
  Alcotest.check_raises "p < 0"
    (Invalid_argument "Histogram.percentile: p must be in [0,100]") (fun () ->
      ignore (Histogram.percentile h (-1.)))

let test_histogram_percentile_single_key () =
  let h = Histogram.create () in
  Histogram.add_many h 4 1000;
  List.iter
    (fun p -> Alcotest.(check int) "all percentiles hit the one key" 4 (Histogram.percentile h p))
    [ 0.; 1.; 50.; 99.; 100. ];
  Alcotest.(check (float 1e-9)) "mean of constant" 4. (Histogram.mean h)

(* The map-backed histogram the dense one replaced: the reference model. *)
module Ref_histogram = struct
  module Int_map = Map.Make (Int)

  type t = { mutable counts : int Int_map.t; mutable total : int }

  let create () = { counts = Int_map.empty; total = 0 }

  let add_many t key n =
    let current = Option.value (Int_map.find_opt key t.counts) ~default:0 in
    t.counts <- Int_map.add key (current + n) t.counts;
    t.total <- t.total + n

  let count t key = Option.value (Int_map.find_opt key t.counts) ~default:0
  let to_sorted_list t = Int_map.bindings t.counts
  let keys t = List.map fst (to_sorted_list t)

  let mean t =
    if t.total = 0 then 0.
    else
      Int_map.fold (fun k n acc -> acc +. (float_of_int k *. float_of_int n)) t.counts 0.
      /. float_of_int t.total

  let max_key t =
    match Int_map.max_binding_opt t.counts with Some (k, _) -> k | None -> 0

  let percentile t p =
    if t.total = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.total))) in
      let result = ref 0 and cum = ref 0 and found = ref false in
      Int_map.iter
        (fun k n ->
          if not !found then begin
            cum := !cum + n;
            if !cum >= rank then begin
              result := k;
              found := true
            end
          end)
        t.counts;
      !result
    end
end

(* Keys straddle every storage class: negative, dense, and past the dense
   limit (2^16). [None] is [add], [Some n] is [add_many] (n may be 0). *)
let prop_histogram_model =
  let key =
    QCheck.Gen.(
      frequency
        [
          (6, int_range 0 300);
          (2, int_range (-40) (-1));
          (1, int_range 0 5_000);
          (1, int_range 65_000 70_000);
        ])
  in
  let op = QCheck.Gen.(pair key (frequency [ (3, return None); (2, map Option.some (int_range 0 4)) ])) in
  QCheck.Test.make ~name:"histogram agrees with the map model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (list (pair int (option int))) float)
       QCheck.Gen.(pair (list_size (int_range 0 200) op) (float_range 0. 100.)))
    (fun (ops, p) ->
      let h = Histogram.create () and r = Ref_histogram.create () in
      List.iter
        (fun (k, n) ->
          (match n with None -> Histogram.add h k | Some n -> Histogram.add_many h k n);
          Ref_histogram.add_many r k (Option.value n ~default:1))
        ops;
      let probes = (-41) :: 65_536 :: 1_000_000 :: List.map fst ops in
      List.for_all (fun k -> Histogram.count h k = Ref_histogram.count r k) probes
      && Histogram.total h = r.Ref_histogram.total
      && Histogram.keys h = Ref_histogram.keys r
      && Histogram.to_sorted_list h = Ref_histogram.to_sorted_list r
      && Int64.bits_of_float (Histogram.mean h) = Int64.bits_of_float (Ref_histogram.mean r)
      && Histogram.max_key h = Ref_histogram.max_key r
      && List.for_all
           (fun p -> Histogram.percentile h p = Ref_histogram.percentile r p)
           [ 0.; 50.; 99.; 99.9; 100.; p ])

let test_histogram_add_allocation () =
  let h = Histogram.create () in
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    Histogram.add h (i * 7919 mod 4096)
  done;
  let words = Gc.minor_words () -. before in
  if words > 10_000. then
    Alcotest.failf "10^5 Histogram.add allocated %.0f minor words (gate: 10k)" words;
  Alcotest.(check int) "every add counted" 100_000 (Histogram.total h)

(* --- zipf ------------------------------------------------------------------- *)

(* The cumulative table [Dist.zipf] builds, and the binary search the
   guide-table lookup replaced: the reference for [zipf_quantile]. *)
let zipf_cdf ~n ~theta =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  Array.iteri (fun i c -> cdf.(i) <- c /. !acc) cdf;
  cdf.(n - 1) <- 1.;
  cdf

let zipf_bsearch cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Every bucket edge j/n and every cdf entry, each with its float
   neighbours: the points where a guide entry or the rounding of [u *. n]
   could land the scan on the wrong side. *)
let test_zipf_quantile_edges () =
  List.iter
    (fun (n, theta) ->
      let z = Dist.zipf ~n ~theta and cdf = zipf_cdf ~n ~theta in
      let check u =
        if u >= 0. && u < 1. then
          let got = Dist.zipf_quantile z u and want = zipf_bsearch cdf u in
          if got <> want then
            Alcotest.failf "n=%d theta=%g u=%h: guide %d, binary search %d" n theta u got want
      in
      let around x = List.iter check [ Float.pred x; x; Float.succ x ] in
      for j = 0 to n do
        around (float_of_int j /. float_of_int n)
      done;
      Array.iter around cdf)
    (List.concat_map (fun n -> List.map (fun t -> (n, t)) [ 0.; 0.9; 1.5 ]) [ 1; 2; 3; 64; 1000; 2048 ])

let test_zipf_draws_match_reference () =
  List.iter
    (fun (n, theta) ->
      let z = Dist.zipf ~n ~theta and cdf = zipf_cdf ~n ~theta in
      let p = Prng.create ~seed:(Int64.of_int n) in
      let q = Prng.copy p in
      for _ = 1 to 100_000 do
        let got = Dist.zipf_draw z p in
        let want = zipf_bsearch cdf (Prng.float q 1.0) in
        if got <> want then Alcotest.failf "n=%d theta=%g: draw %d, reference %d" n theta got want
      done)
    [ (2048, 0.9); (64, 1.5); (2, 0.) ];
  let z = Dist.zipf ~n:4 ~theta:1. in
  List.iter
    (fun u ->
      Alcotest.check_raises "u out of range"
        (Invalid_argument "Dist.zipf_quantile: u must be in [0,1)") (fun () ->
          ignore (Dist.zipf_quantile z u)))
    [ -0.1; 1.; Float.nan ]

(* --- text table ----------------------------------------------------------------- *)

let test_text_table_render () =
  let t =
    Text_table.create ~columns:[ ("name", Text_table.Left); ("value", Text_table.Right) ]
  in
  Text_table.add_row t [ "x"; "10" ];
  Text_table.add_rule t;
  Text_table.add_row t [ "longer"; "3" ];
  let s = Text_table.render t in
  (* header, header rule, row, explicit rule, row *)
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "5 lines" 5 (List.length lines);
  (match lines with
  | header :: _ -> Alcotest.(check bool) "header first" true (String.length header > 0)
  | [] -> Alcotest.fail "empty render");
  Alcotest.(check bool) "contains both rows" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> l = "x          10"
                                                            || String.length l > 0))

let test_text_table_arity () =
  let t = Text_table.create ~columns:[ ("a", Text_table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Text_table.add_row: arity mismatch")
    (fun () -> Text_table.add_row t [ "x"; "y" ])

let test_text_table_cells () =
  Alcotest.(check string) "f1" "1.5" (Text_table.cell_f1 1.54);
  Alcotest.(check string) "f2" "0.94" (Text_table.cell_f2 0.938);
  Alcotest.(check string) "pct" "24.9%" (Text_table.cell_pct 24.91);
  Alcotest.(check string) "int" "42" (Text_table.cell_int 42)

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng invalid args" `Quick test_prng_invalid;
    Alcotest.test_case "prng golden streams" `Quick test_prng_golden_streams;
    Alcotest.test_case "prng int allocation gate" `Quick test_prng_int_allocation;
    Alcotest.test_case "bitvec basic" `Quick test_bitvec_basic;
    Alcotest.test_case "bitvec fill/popcount" `Quick test_bitvec_fill_popcount;
    Alcotest.test_case "bitvec union/equal" `Quick test_bitvec_union_equal;
    Alcotest.test_case "bitvec bounds" `Quick test_bitvec_bounds;
    qcheck prop_bitvec_model;
    Alcotest.test_case "stats moments" `Quick test_stats_moments;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats helpers" `Quick test_stats_helpers;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram mean/percentile" `Quick test_histogram_mean_percentile;
    Alcotest.test_case "histogram percentile bounds" `Quick test_histogram_percentile_invalid;
    Alcotest.test_case "histogram percentile single key" `Quick
      test_histogram_percentile_single_key;
    qcheck prop_histogram_model;
    Alcotest.test_case "histogram add allocation gate" `Quick test_histogram_add_allocation;
    Alcotest.test_case "zipf quantile at bucket and cdf edges" `Quick test_zipf_quantile_edges;
    Alcotest.test_case "zipf draws match binary search" `Quick test_zipf_draws_match_reference;
    Alcotest.test_case "text table render" `Quick test_text_table_render;
    Alcotest.test_case "text table arity" `Quick test_text_table_arity;
    Alcotest.test_case "text table cells" `Quick test_text_table_cells;
  ]
