(* Unit tests for the application toolkit: arrays, strides, work piles. *)

open Numa_machine
module System = Numa_system.System
module Api = Numa_sim.Api
module W = Numa_apps.Workload
module Region_attr = Numa_vm.Region_attr

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:64 ~global_pages:256 ()

let mk () = System.create ~config:(small_config ()) ()

let alloc sys ~words =
  W.alloc_arr sys ~name:"arr" ~sharing:Region_attr.Declared_write_shared ~words ()

let test_arr_geometry () =
  let sys = mk () in
  let a = alloc sys ~words:1000 in
  (* 512 words per 2 KB page -> 2 pages. *)
  Alcotest.(check int) "2 pages" 2 (W.n_pages a);
  Alcotest.(check int) "word 0 on base page" a.W.region.System.base_vpage (W.vpage_of a 0);
  Alcotest.(check int) "word 511 on base page" a.W.region.System.base_vpage
    (W.vpage_of a 511);
  Alcotest.(check int) "word 512 on next page"
    (a.W.region.System.base_vpage + 1)
    (W.vpage_of a 512);
  Alcotest.check_raises "oob" (Invalid_argument "Workload.vpage_of: index out of range")
    (fun () -> ignore (W.vpage_of a 1000))

(* Count batched operations via the trace hook. *)
let count_ops sys f =
  let ops = ref 0 and refs = ref 0 in
  System.set_access_hook sys
    (Some
       (fun e ->
         incr ops;
         refs := !refs + e.System.count));
  ignore (System.spawn sys ~name:"t" (fun ~stack_vpage:_ -> f ()));
  ignore (System.run sys);
  System.set_access_hook sys None;
  (!ops, !refs)

let test_range_batches_per_page () =
  let sys = mk () in
  let a = alloc sys ~words:2048 in
  let ops, refs = count_ops sys (fun () -> W.read_range a ~lo:100 ~n:1000) in
  (* Words 100..1099 touch pages 0,1,2 -> 3 batched ops, 1000 refs. *)
  Alcotest.(check int) "3 ops" 3 ops;
  Alcotest.(check int) "1000 refs" 1000 refs

let test_stride_batches () =
  let sys = mk () in
  let a = alloc sys ~words:4096 in
  (* Stride 512 = one element per page: 8 ops of 1 ref. *)
  let ops, refs = count_ops sys (fun () -> W.read_stride a ~lo:0 ~n:8 ~stride:512) in
  Alcotest.(check int) "8 ops" 8 ops;
  Alcotest.(check int) "8 refs" 8 refs;
  (* Stride 128 = four elements per page. *)
  let sys2 = mk () in
  let b = alloc sys2 ~words:4096 in
  let ops2, refs2 = count_ops sys2 (fun () -> W.read_stride b ~lo:0 ~n:16 ~stride:128) in
  Alcotest.(check int) "4 ops (4 per page)" 4 ops2;
  Alcotest.(check int) "16 refs" 16 refs2

let test_stride_bounds () =
  let sys = mk () in
  let a = alloc sys ~words:512 in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ ->
         W.read_stride a ~lo:0 ~n:1 ~stride:9999));
  ignore (System.run sys);
  Alcotest.(check bool) "single element always fine" true true;
  Alcotest.check_raises "overrun rejected"
    (Invalid_argument "Workload: stride range out of bounds") (fun () ->
      ignore (W.read_stride a ~lo:0 ~n:3 ~stride:256));
  Alcotest.check_raises "span stride must be positive"
    (Invalid_argument "Api.span: stride must be positive") (fun () ->
      Api.span Access.Load ~base_vpage:0 ~words_per_page:512 ~lo:0 ~n:2 ~stride:0)

let test_linkage_mix () =
  let sys = mk () in
  let reads = ref 0 and writes = ref 0 in
  System.set_access_hook sys
    (Some
       (fun e ->
         match e.System.kind with
         | Access.Load -> reads := !reads + e.System.count
         | Access.Store -> writes := !writes + e.System.count));
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage ->
         W.linkage ~stack_vpage ~refs:101));
  ignore (System.run sys);
  Alcotest.(check int) "51 fetches" 51 !reads;
  Alcotest.(check int) "50 stores" 50 !writes

let test_workpile_covers_exactly () =
  let sys = mk () in
  let pile = W.make_workpile sys ~name:"pile" ~total:103 ~chunk:10 in
  let covered = Array.make 103 0 in
  for i = 0 to 3 do
    ignore
      (System.spawn sys ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun ~stack_vpage:_ ->
           let rec go () =
             match W.workpile_take pile with
             | None -> ()
             | Some (lo, hi) ->
                 Alcotest.(check bool) "chunk bounded" true (hi - lo + 1 <= 10);
                 for k = lo to hi do
                   covered.(k) <- covered.(k) + 1
                 done;
                 Numa_sim.Api.compute 10_000.;
                 go ()
           in
           go ()))
  done;
  ignore (System.run sys);
  Array.iteri
    (fun i n -> if n <> 1 then Alcotest.failf "unit %d covered %d times" i n)
    covered

let test_static_share_partitions () =
  let total = 100 and nthreads = 7 in
  let seen = Array.make total 0 in
  for tid = 0 to nthreads - 1 do
    let lo, hi = W.static_share ~total ~nthreads ~tid in
    for i = lo to hi - 1 do
      seen.(i) <- seen.(i) + 1
    done
  done;
  Array.iteri (fun i n -> if n <> 1 then Alcotest.failf "index %d covered %d times" i n) seen;
  (* Shares are balanced within one unit. *)
  let sizes =
    List.init nthreads (fun tid ->
        let lo, hi = W.static_share ~total ~nthreads ~tid in
        hi - lo)
  in
  let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
  Alcotest.(check bool) "balanced" true (mx - mn <= 1)

let test_primes_util () =
  Alcotest.(check int) "isqrt 0" 0 (Numa_apps.Primes_util.isqrt 0);
  Alcotest.(check int) "isqrt 15" 3 (Numa_apps.Primes_util.isqrt 15);
  Alcotest.(check int) "isqrt 16" 4 (Numa_apps.Primes_util.isqrt 16);
  Alcotest.(check int) "isqrt 1e8" 10_000 (Numa_apps.Primes_util.isqrt 100_000_000);
  let p100 = Numa_apps.Primes_util.primes_upto 100 in
  Alcotest.(check int) "pi(100)" 25 (Array.length p100);
  Alcotest.(check int) "first prime" 2 p100.(0);
  Alcotest.(check int) "last under 100" 97 p100.(24);
  Alcotest.(check int) "pi(1)" 0 (Array.length (Numa_apps.Primes_util.primes_upto 1))

let test_odd_multiples_count () =
  let module P = Numa_apps.Primes_util in
  (* Bits 0..n stand for odd numbers 3,5,7,...; p = 3 marks 9,15,21,... *)
  let count = P.count_odd_multiples_in_bit_range ~p:3 ~lo_bit:0 ~hi_bit:48 ~limit:99 in
  (* odd multiples of 3 from 9 to 99: 9,15,...,99 -> 16. *)
  Alcotest.(check int) "3 marks up to 99" 16 count;
  (* Consistency: summing page-sized sub-ranges equals the full range. *)
  let full = P.count_odd_multiples_in_bit_range ~p:7 ~lo_bit:0 ~hi_bit:499 ~limit:1001 in
  let parts =
    List.init 5 (fun i ->
        P.count_odd_multiples_in_bit_range ~p:7 ~lo_bit:(i * 100)
          ~hi_bit:((i * 100) + 99) ~limit:1001)
  in
  Alcotest.(check int) "partition sums" full (List.fold_left ( + ) 0 parts)

let test_primes_upto_trial_division () =
  let is_prime n =
    n >= 2
    &&
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    go 2
  in
  let reference = ref [] in
  for n = 0 to 5000 do
    if is_prime n then reference := n :: !reference;
    let want = Array.of_list (List.rev !reference) in
    if Numa_apps.Primes_util.primes_upto n <> want then
      Alcotest.failf "primes_upto %d differs from trial division" n
  done

let test_primes_upto_known_counts () =
  List.iter
    (fun (n, pi) ->
      Alcotest.(check int)
        (Printf.sprintf "pi(%d)" n)
        pi
        (Array.length (Numa_apps.Primes_util.primes_upto n)))
    [ (100_000, 9592); (1_000_000, 78498); (5_000_000, 348513); (10_000_000, 664579) ]

(* primes3 reads its scan offsets straight off the odd-only bit sieve;
   they must equal the ones derived from the full prime list, bucketed by
   the sieve page each odd prime's bit lands on. *)
let test_primes3_offsets_match_prime_list () =
  let wpp = (Numa_machine.Config.ace ()).Numa_machine.Config.page_size_words in
  let bits_per_page = wpp * 32 in
  List.iter
    (fun scale ->
      let limit = Numa_apps.Primes3.limit scale in
      let n_bits = (limit - 1) / 2 in
      let n_pages = (((n_bits + 31) / 32) + wpp - 1) / wpp in
      let per_page = Array.make n_pages 0 in
      Array.iter
        (fun q ->
          if q >= 3 then begin
            let pg = (q - 3) / 2 / bits_per_page in
            per_page.(pg) <- per_page.(pg) + 1
          end)
        (Numa_apps.Primes_util.primes_upto limit);
      let want = Array.make (n_pages + 1) 0 in
      Array.iteri (fun pg c -> want.(pg + 1) <- want.(pg) + c) per_page;
      Alcotest.(check (array int))
        (Printf.sprintf "offsets at scale %g" scale)
        want
        (Numa_apps.Primes3.scan_offsets ~n_bits ~bits_per_page ~n_pages))
    [ 0.03; 1.0 ]

(* --- spans against the per-page loop ------------------------------------ *)

(* The reference: the loop the range and stride helpers ran before a walk
   became one span — one [Api.read]/[Api.write] per page batch, with the
   thread body resumed between pages. *)
let per_page_walk (a : W.arr) access ~lo ~n ~stride ~value =
  let base = a.W.region.System.base_vpage in
  Numa_sim.Op.stride_batches ~words_per_page:a.W.words_per_page ~lo ~n ~stride
    (fun page count ->
      match access with
      | Access.Load -> Api.read ~count (base + page)
      | Access.Store -> Api.write ~count ~value (base + page))

let span_walk a access ~lo ~n ~stride ~value =
  match (access, stride) with
  | Access.Load, 1 -> W.read_range a ~lo ~n
  | Access.Store, 1 -> W.write_range ~value a ~lo ~n
  | Access.Load, _ -> W.read_stride a ~lo ~n ~stride
  | Access.Store, _ -> W.write_stride ~value a ~lo ~n ~stride

type walk = {
  access : Access.t;
  lo : int;
  n : int;
  stride : int;
  deadline_ns : int option;  (** armed this long after the walk starts *)
}

let span_pages = 8

(* Everything a run exposes: the report, the access-hook stream, the hub
   stream, the event count — plus, as coverage, how many deadlines fired
   after the walk under them had made some but not all of its references. *)
let run_walks ~span (n_cpus, chunk_refs, threads) =
  let config = Config.ace ~n_cpus ~local_pages_per_cpu:64 ~global_pages:256 () in
  let sys = System.create ~chunk_refs ~config () in
  let a = alloc sys ~words:(span_pages * config.Config.page_size_words) in
  let accesses = ref [] and events = ref [] in
  let refs_by_tid = Array.make (List.length threads) 0 in
  System.set_access_hook sys
    (Some
       (fun e ->
         refs_by_tid.(e.System.tid) <- refs_by_tid.(e.System.tid) + e.System.count;
         accesses :=
           (e.System.at, e.System.cpu, e.System.tid, e.System.vpage, e.System.count)
           :: !accesses));
  Numa_obs.Hub.attach (System.obs sys) ~name:"spans" (fun ~ts ev ->
      events := (ts, ev) :: !events);
  let mid_walk = ref 0 in
  List.iteri
    (fun i walks ->
      ignore
        (System.spawn sys ~cpu:(i mod n_cpus) ~name:(Printf.sprintf "t%d" i)
           (fun ~stack_vpage:_ ->
             List.iteri
               (fun j w ->
                 let value = (10 * i) + j + 1 in
                 let walk () =
                   (if span then span_walk else per_page_walk)
                     a w.access ~lo:w.lo ~n:w.n ~stride:w.stride ~value
                 in
                 match w.deadline_ns with
                 | None -> walk ()
                 | Some d ->
                     (* Threads get tids 0, 1, ... in spawn order. *)
                     let before = refs_by_tid.(i) in
                     let until_ns =
                       Numa_sim.Engine.now (System.engine sys) +. float_of_int d
                     in
                     let fired = Api.with_deadline ~until_ns walk = None in
                     let made = refs_by_tid.(i) - before in
                     if fired && made > 0 && made < w.n then incr mid_walk)
               walks)))
    threads;
  let report = System.run sys in
  ( ( Numa_obs.Json.to_string (Numa_system.Report.to_json report),
      List.rev !accesses,
      List.rev !events,
      Numa_sim.Engine.n_events (System.engine sys) ),
    !mid_walk )

let gen_walk ~words =
  QCheck.Gen.(
    oneofl [ Access.Load; Access.Store ] >>= fun access ->
    int_range 0 (words - 1) >>= fun lo ->
    frequency [ (2, return 1); (1, int_range 2 40); (1, int_range 41 700) ] >>= fun stride ->
    int_range 0 (min 1_500 (((words - 1 - lo) / stride) + 1)) >>= fun n ->
    frequency [ (2, return None); (1, map Option.some (int_range 0 400_000)) ]
    >>= fun deadline_ns -> return { access; lo; n; stride; deadline_ns })

let gen_span_case =
  let words = span_pages * (small_config ()).Config.page_size_words in
  QCheck.Gen.(
    int_range 1 4 >>= fun n_cpus ->
    int_range 1 600 >>= fun chunk_refs ->
    list_size (int_range 1 4) (list_size (int_range 1 6) (gen_walk ~words))
    >>= fun threads -> return (n_cpus, chunk_refs, threads))

let print_span_case (n_cpus, chunk_refs, threads) =
  Printf.sprintf "cpus=%d chunk_refs=%d\n%s" n_cpus chunk_refs
    (String.concat "\n"
       (List.mapi
          (fun i ws ->
            Printf.sprintf "t%d: %s" i
              (String.concat "; "
                 (List.map
                    (fun w ->
                      Printf.sprintf "%s lo=%d n=%d stride=%d%s" (Access.to_string w.access)
                        w.lo w.n w.stride
                        (match w.deadline_ns with
                        | None -> ""
                        | Some d -> Printf.sprintf " deadline=+%dns" d))
                    ws)))
          threads))

let span_mid_walk_fires = ref 0

(* A span is one engine op, yet the run is indistinguishable from the
   per-page loop: the same report, access stream, hub stream and event
   count, with deadlines firing in the middle of walks. *)
let prop_span_matches_per_page =
  QCheck.Test.make ~name:"spans match the per-page loop" ~count:3_000
    (QCheck.make ~print:print_span_case gen_span_case)
    (fun case ->
      let want, _ = run_walks ~span:false case in
      let got, fired = run_walks ~span:true case in
      span_mid_walk_fires := !span_mid_walk_fires + fired;
      got = want)

let test_span_equivalence () =
  QCheck.Test.check_exn prop_span_matches_per_page;
  Alcotest.(check bool) "deadlines fired in the middle of walks" true
    (!span_mid_walk_fires > 0)

(* A multi-page walk costs one effect round trip, not one per page. *)
let test_span_allocation () =
  let sys = System.create ~config:(small_config ()) () in
  let wpp = (small_config ()).Config.page_size_words in
  let a = alloc sys ~words:(64 * wpp) in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ ->
         for k = 0 to 10 do
           W.read_stride a ~lo:k ~n:64 ~stride:wpp
         done));
  let before = Gc.minor_words () in
  ignore (System.run sys);
  let words = Gc.minor_words () -. before in
  let events = Numa_sim.Engine.n_events (System.engine sys) in
  let per_event = words /. float_of_int events in
  if per_event > 50. then
    Alcotest.failf "%.1f words per event over %d events (gate: 50)" per_event events

let suite =
  [
    Alcotest.test_case "array geometry" `Quick test_arr_geometry;
    Alcotest.test_case "range batches per page" `Quick test_range_batches_per_page;
    Alcotest.test_case "stride batches" `Quick test_stride_batches;
    Alcotest.test_case "stride bounds" `Quick test_stride_bounds;
    Alcotest.test_case "spans match the per-page loop" `Slow test_span_equivalence;
    Alcotest.test_case "span allocation per event" `Quick test_span_allocation;
    Alcotest.test_case "linkage read/write mix" `Quick test_linkage_mix;
    Alcotest.test_case "workpile covers exactly once" `Quick test_workpile_covers_exactly;
    Alcotest.test_case "static share partitions" `Quick test_static_share_partitions;
    Alcotest.test_case "primes utilities" `Quick test_primes_util;
    Alcotest.test_case "odd-multiple counting" `Quick test_odd_multiples_count;
    Alcotest.test_case "primes_upto matches trial division" `Quick
      test_primes_upto_trial_division;
    Alcotest.test_case "primes_upto known counts" `Quick test_primes_upto_known_counts;
    Alcotest.test_case "primes3 offsets match the prime list" `Quick
      test_primes3_offsets_match_prime_list;
  ]
