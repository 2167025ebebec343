(* Unit tests for the machine model: configuration, cost model, frame
   table, MMU. *)

open Numa_machine

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:8 ~global_pages:32 ()

(* --- config ------------------------------------------------------------- *)

let test_ace_defaults () =
  let c = Config.ace () in
  Alcotest.(check int) "7 CPUs (Table 4 machine)" 7 c.Config.n_cpus;
  Alcotest.(check int) "2 KB pages" 2048 (Config.page_size_bytes c);
  Alcotest.(check (float 1e-9)) "local fetch 0.65us" 650. c.Config.local_fetch_ns;
  Alcotest.(check (float 1e-9)) "global store 1.4us" 1400. c.Config.global_store_ns

let test_gl_ratios () =
  let c = Config.ace () in
  (* Section 2.2: 2.3x slower on fetches, ~2x at 45% stores. *)
  Alcotest.(check (float 0.05)) "fetch ratio 2.3" 2.31
    (Config.global_to_local_fetch_ratio c);
  Alcotest.(check (float 0.05)) "mixed ratio ~2" 1.98
    (Config.global_to_local_ratio c ~store_fraction:0.45)

let test_butterfly_preset () =
  let c = Config.butterfly_like () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Config.validate c));
  Alcotest.(check (float 1e-9)) "global = remote fetch" c.Config.remote_fetch_ns
    c.Config.global_fetch_ns;
  Alcotest.(check bool) "steeper G/L than the ACE" true
    (Config.global_to_local_fetch_ratio c > Config.global_to_local_fetch_ratio (Config.ace ()))

let test_config_validation () =
  let ok = Config.validate (Config.ace ()) in
  Alcotest.(check bool) "ace is valid" true (Result.is_ok ok);
  let bad = { (Config.ace ()) with Config.n_cpus = 0 } in
  Alcotest.(check bool) "0 cpus invalid" true (Result.is_error (Config.validate bad));
  let uma =
    { (Config.ace ()) with Config.global_fetch_ns = 100.; global_store_ns = 100. }
  in
  Alcotest.(check bool) "global faster than local rejected" true
    (Result.is_error (Config.validate uma))

(* --- cost model ---------------------------------------------------------- *)

let test_reference_costs () =
  let c = Config.ace () in
  let r ~access ~where = Cost.reference_ns c ~access ~where in
  Alcotest.(check (float 1e-9)) "local load" 650. (r ~access:Access.Load ~where:Location.Local_here);
  Alcotest.(check (float 1e-9)) "local store" 840. (r ~access:Access.Store ~where:Location.Local_here);
  Alcotest.(check (float 1e-9)) "global load" 1500. (r ~access:Access.Load ~where:Location.In_global);
  Alcotest.(check (float 1e-9)) "global store" 1400. (r ~access:Access.Store ~where:Location.In_global);
  Alcotest.(check (float 1e-9)) "batch of 10" 6500.
    (Cost.references_ns c ~access:Access.Load ~where:Location.Local_here ~count:10)

let test_page_copy_costs () =
  let c = Config.ace () in
  (* 512 words x (global fetch + local store). *)
  Alcotest.(check (float 1e-6)) "copy in" (512. *. (1500. +. 840.))
    (Cost.page_copy_ns c ~src:Location.In_global ~dst:Location.Local_here);
  Alcotest.(check (float 1e-6)) "sync out" (512. *. (650. +. 1400.))
    (Cost.page_copy_ns c ~src:Location.Local_here ~dst:Location.In_global);
  Alcotest.(check (float 1e-6)) "zero local" (512. *. 840.)
    (Cost.page_zero_ns c ~dst:Location.Local_here)

let test_location_classification () =
  Alcotest.(check bool) "own local" true
    (Location.where_from ~cpu:2 (Location.Local 2) = Location.Local_here);
  Alcotest.(check bool) "other local is remote" true
    (Location.where_from ~cpu:2 (Location.Local 3) = Location.Remote_local);
  Alcotest.(check bool) "global" true
    (Location.where_from ~cpu:2 Location.Global = Location.In_global)

let test_prot_lattice () =
  Alcotest.(check bool) "ro allows load" true (Prot.allows Prot.Read_only Access.Load);
  Alcotest.(check bool) "ro blocks store" false (Prot.allows Prot.Read_only Access.Store);
  Alcotest.(check bool) "rw allows store" true (Prot.allows Prot.Read_write Access.Store);
  Alcotest.(check bool) "none blocks load" false (Prot.allows Prot.No_access Access.Load);
  Alcotest.(check bool) "min" true (Prot.min Prot.Read_write Prot.Read_only = Prot.Read_only);
  Alcotest.(check bool) "max" true (Prot.max Prot.No_access Prot.Read_only = Prot.Read_only);
  Alcotest.(check bool) "of_access store" true (Prot.of_access Access.Store = Prot.Read_write)

(* --- cost sink -------------------------------------------------------------- *)

let test_cost_sink () =
  let s = Cost_sink.create ~n_cpus:2 in
  Cost_sink.charge s ~cpu:0 ~cat:Numa_obs.Profile.Pmap_action ~lpage:(-1) 100.;
  Cost_sink.charge s ~cpu:0 ~cat:Numa_obs.Profile.Pmap_action ~lpage:(-1) 50.;
  Cost_sink.charge s ~cpu:1 ~cat:Numa_obs.Profile.Pmap_action ~lpage:(-1) 10.;
  Alcotest.(check (float 1e-9)) "pending" 150. (Cost_sink.pending s ~cpu:0);
  Alcotest.(check (float 1e-9)) "drain" 150. (Cost_sink.drain s ~cpu:0);
  Alcotest.(check (float 1e-9)) "drained" 0. (Cost_sink.pending s ~cpu:0);
  Alcotest.(check (float 1e-9)) "cumulative survives drain" 150.
    (Cost_sink.total_charged s ~cpu:0);
  Alcotest.(check (float 1e-9)) "grand total" 160. (Cost_sink.grand_total s);
  Alcotest.check_raises "negative charge"
    (Invalid_argument "Cost_sink.charge: negative charge") (fun () ->
      Cost_sink.charge s ~cpu:0 ~cat:Numa_obs.Profile.Pmap_action ~lpage:(-1) (-1.))

(* --- frame table --------------------------------------------------------------- *)

let test_frame_alloc_exhaustion () =
  let t = Frame_table.create (small_config ()) in
  let frames = ref [] in
  for _ = 1 to 8 do
    match Frame_table.alloc_local t ~node:1 with
    | Some f -> frames := f :: !frames
    | None -> Alcotest.fail "pool exhausted early"
  done;
  Alcotest.(check int) "in use" 8 (Frame_table.local_in_use t ~node:1);
  Alcotest.(check bool) "exhausted" true (Frame_table.alloc_local t ~node:1 = None);
  Alcotest.(check bool) "other node unaffected" true
    (Frame_table.alloc_local t ~node:0 <> None);
  List.iter (Frame_table.free_local t) !frames;
  Alcotest.(check int) "all freed" 0 (Frame_table.local_in_use t ~node:1)

let test_frame_double_free () =
  let t = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local t ~node:0) in
  Frame_table.free_local t f;
  (* The message names the frame and its node: a double free is a protocol
     bug, and the ids are what you need to find it in a trace. *)
  Alcotest.check_raises "double free"
    (Invalid_argument
       (Printf.sprintf "Frame_table.free_local: double free of frame %d on node %d"
          f.Frame_table.id 0))
    (fun () -> Frame_table.free_local t f)

let test_frame_double_free_offline () =
  let t = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local t ~node:1) in
  Frame_table.free_local t f;
  (* Taking the node offline must not silence the error path. *)
  Frame_table.set_node_online t ~node:1 false;
  Alcotest.check_raises "double free while offline"
    (Invalid_argument
       (Printf.sprintf "Frame_table.free_local: double free of frame %d on node %d"
          f.Frame_table.id 1))
    (fun () -> Frame_table.free_local t f)

let test_frame_content_transfer () =
  let t = Frame_table.create (small_config ()) in
  Frame_table.write_global t ~lpage:3 77;
  let f = Option.get (Frame_table.alloc_local t ~node:0) in
  Frame_table.copy_global_to_local t ~lpage:3 f;
  Alcotest.(check int) "copied in" 77 (Frame_table.read_local f);
  Frame_table.write_local t f 88;
  Frame_table.copy_local_to_global t f ~lpage:3;
  Alcotest.(check int) "synced out" 88 (Frame_table.read_global t ~lpage:3);
  Frame_table.zero_global t ~lpage:3;
  Alcotest.(check int) "zeroed" 0 (Frame_table.read_global t ~lpage:3)

let test_frame_alloc_resets_cell () =
  let t = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local t ~node:0) in
  Frame_table.write_local t f 42;
  Frame_table.free_local t f;
  let f2 = Option.get (Frame_table.alloc_local t ~node:0) in
  Alcotest.(check int) "fresh frame zeroed" 0 (Frame_table.read_local f2)

(* --- mmu ----------------------------------------------------------------------- *)

let test_mmu_enter_lookup_remove () =
  let t = Mmu.create (small_config ()) in
  Mmu.enter t ~pmap:0 ~cpu:1 ~vpage:10 ~lpage:5 ~prot:Prot.Read_only
    ~phys:(Mmu.Global_frame 5);
  (match Mmu.lookup t ~pmap:0 ~cpu:1 ~vpage:10 with
  | Some e ->
      Alcotest.(check int) "lpage" 5 e.Mmu.lpage;
      Alcotest.(check bool) "prot" true (e.Mmu.prot = Prot.Read_only)
  | None -> Alcotest.fail "mapping missing");
  Alcotest.(check bool) "other cpu not mapped" true
    (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:10 = None);
  Mmu.remove t ~pmap:0 ~cpu:1 ~vpage:10;
  Alcotest.(check bool) "removed" true (Mmu.lookup t ~pmap:0 ~cpu:1 ~vpage:10 = None);
  Alcotest.(check int) "no mappings" 0 (Mmu.n_mappings t)

let test_mmu_reverse_index () =
  let t = Mmu.create (small_config ()) in
  for cpu = 0 to 3 do
    Mmu.enter t ~pmap:0 ~cpu ~vpage:7 ~lpage:9 ~prot:Prot.Read_only
      ~phys:(Mmu.Global_frame 9)
  done;
  Mmu.enter t ~pmap:1 ~cpu:0 ~vpage:3 ~lpage:9 ~prot:Prot.Read_only
    ~phys:(Mmu.Global_frame 9);
  Alcotest.(check int) "5 mappings of lpage 9" 5
    (List.length (Mmu.entries_of_lpage t ~lpage:9));
  Alcotest.(check int) "pmap 1 has 1" 1 (List.length (Mmu.entries_of_pmap t ~pmap:1))

let test_mmu_replace_updates_reverse () =
  let t = Mmu.create (small_config ()) in
  Mmu.enter t ~pmap:0 ~cpu:0 ~vpage:1 ~lpage:2 ~prot:Prot.Read_only
    ~phys:(Mmu.Global_frame 2);
  (* Re-enter the same (pmap, cpu, vpage) against a different lpage. *)
  Mmu.enter t ~pmap:0 ~cpu:0 ~vpage:1 ~lpage:6 ~prot:Prot.Read_write
    ~phys:(Mmu.Global_frame 6);
  Alcotest.(check int) "old lpage unindexed" 0
    (List.length (Mmu.entries_of_lpage t ~lpage:2));
  Alcotest.(check int) "new lpage indexed" 1
    (List.length (Mmu.entries_of_lpage t ~lpage:6));
  Alcotest.(check int) "single mapping" 1 (Mmu.n_mappings t)

let test_mmu_remove_range () =
  let t = Mmu.create (small_config ()) in
  for v = 0 to 9 do
    Mmu.enter t ~pmap:0 ~cpu:0 ~vpage:v ~lpage:v ~prot:Prot.Read_write
      ~phys:(Mmu.Global_frame v)
  done;
  Mmu.remove_range t ~pmap:0 ~vpage:2 ~n:5;
  Alcotest.(check int) "5 remain" 5 (Mmu.n_mappings t);
  Alcotest.(check bool) "edge below kept" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:1 <> None);
  Alcotest.(check bool) "range start gone" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:2 = None);
  Alcotest.(check bool) "range end gone" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:6 = None);
  Alcotest.(check bool) "edge above kept" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:7 <> None)

let test_mmu_phys_location () =
  let ft = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local ft ~node:2) in
  Alcotest.(check bool) "frame local to node" true
    (Mmu.phys_location ~cpu:2 (Mmu.Frame f) = Location.Local_here);
  Alcotest.(check bool) "frame remote otherwise" true
    (Mmu.phys_location ~cpu:0 (Mmu.Frame f) = Location.Remote_local);
  Alcotest.(check bool) "global frame" true
    (Mmu.phys_location ~cpu:0 (Mmu.Global_frame 1) = Location.In_global)

(* --- software TLB ------------------------------------------------------------------- *)

let test_tlb_hit_miss_counters () =
  let t : int Tlb.t = Tlb.create ~slots:16 () in
  Alcotest.(check bool) "cold lookup misses" true (Tlb.lookup t ~pmap:0 ~vpage:3 = None);
  Tlb.insert t ~pmap:0 ~vpage:3 42;
  (match Tlb.lookup t ~pmap:0 ~vpage:3 with
  | Some 42 -> ()
  | Some _ -> Alcotest.fail "wrong payload"
  | None -> Alcotest.fail "hit expected after insert");
  Alcotest.(check int) "one hit" 1 (Tlb.hits t);
  Alcotest.(check int) "one miss" 1 (Tlb.misses t);
  (* A different pmap mapping the same vpage is a distinct translation. *)
  Alcotest.(check bool) "other pmap misses" true (Tlb.lookup t ~pmap:1 ~vpage:3 = None)

let test_tlb_invalidate () =
  let t : int Tlb.t = Tlb.create ~slots:16 () in
  Tlb.insert t ~pmap:0 ~vpage:5 7;
  Alcotest.(check bool) "shootdown of another page is a no-op" false
    (Tlb.invalidate t ~pmap:0 ~vpage:6);
  Alcotest.(check bool) "precise shootdown drops the entry" true
    (Tlb.invalidate t ~pmap:0 ~vpage:5);
  Alcotest.(check bool) "entry gone" true (Tlb.lookup t ~pmap:0 ~vpage:5 = None);
  Alcotest.(check int) "one shootdown counted" 1 (Tlb.shootdowns t);
  Alcotest.(check bool) "double shootdown is a no-op" false
    (Tlb.invalidate t ~pmap:0 ~vpage:5);
  Alcotest.(check int) "still one shootdown" 1 (Tlb.shootdowns t)

let test_tlb_conflict_eviction () =
  let t : int Tlb.t = Tlb.create ~slots:16 () in
  (* Same pmap, vpages congruent mod the slot count: direct-mapped conflict. *)
  Tlb.insert t ~pmap:0 ~vpage:1 10;
  Tlb.insert t ~pmap:0 ~vpage:(1 + Tlb.size t) 20;
  Alcotest.(check bool) "conflicting fill evicted the old entry" true
    (Tlb.lookup t ~pmap:0 ~vpage:1 = None);
  (match Tlb.lookup t ~pmap:0 ~vpage:(1 + Tlb.size t) with
  | Some 20 -> ()
  | _ -> Alcotest.fail "new entry survives");
  Alcotest.(check int) "eviction is not a shootdown" 0 (Tlb.shootdowns t)

let test_tlb_flush_and_sizing () =
  let t : int Tlb.t = Tlb.create ~slots:20 () in
  Alcotest.(check int) "slots round up to a power of two" 32 (Tlb.size t);
  for v = 0 to 9 do
    Tlb.insert t ~pmap:0 ~vpage:v v
  done;
  Tlb.flush t;
  for v = 0 to 9 do
    Alcotest.(check bool) "flushed" true (Tlb.lookup t ~pmap:0 ~vpage:v = None)
  done;
  Alcotest.(check int) "flush is not a shootdown" 0 (Tlb.shootdowns t)

(* --- bus ---------------------------------------------------------------------------- *)

let test_bus_disabled_by_default () =
  let bus = Bus.create (Config.ace ()) in
  Alcotest.(check bool) "disabled" false (Bus.enabled bus);
  Alcotest.(check (float 0.)) "no delay" 0. (Bus.delay_ns bus ~now:0. ~words:1_000_000);
  Alcotest.(check int) "no accounting when disabled" 0 (Bus.total_words bus)

let test_bus_under_capacity_is_free () =
  let config = { (Config.ace ()) with Config.bus_words_per_ns = 0.02 } in
  let bus = Bus.create config in
  (* One word every 100 ns = 0.01 words/ns, half the capacity. *)
  for i = 0 to 99 do
    let d = Bus.delay_ns bus ~now:(float_of_int (i * 100)) ~words:1 in
    Alcotest.(check bool) "no queueing under capacity" true (d <= 50.)
  done

let test_bus_overload_queues () =
  let config = { (Config.ace ()) with Config.bus_words_per_ns = 0.01 } in
  let bus = Bus.create config in
  (* A 1000-word burst at t=0 takes 100_000 ns to drain; a second burst
     right behind it must wait for the first. *)
  let d1 = Bus.delay_ns bus ~now:0. ~words:1000 in
  Alcotest.(check (float 1e-9)) "first burst unqueued" 0. d1;
  let d2 = Bus.delay_ns bus ~now:10. ~words:1000 in
  Alcotest.(check (float 1.)) "second burst waits for the first" 99_990. d2;
  Alcotest.(check int) "traffic accounted" 2000 (Bus.total_words bus);
  Alcotest.(check bool) "delay accounted" true (Bus.total_delay_ns bus > 0.)

let test_bus_idle_gap_drains () =
  let config = { (Config.ace ()) with Config.bus_words_per_ns = 0.01 } in
  let bus = Bus.create config in
  ignore (Bus.delay_ns bus ~now:0. ~words:1000);
  (* After the backlog has fully drained, a new burst is unqueued. *)
  let d = Bus.delay_ns bus ~now:200_000. ~words:1000 in
  Alcotest.(check (float 1e-9)) "drained" 0. d

(* --- topology ---------------------------------------------------------------------- *)

let test_topology_render () =
  let s = Topology.render (Config.ace ()) in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions IPC bus" true (has "IPC");
  Alcotest.(check bool) "mentions global memory" true (has "global memory");
  Alcotest.(check bool) "has timings" true (has "0.65")

let suite =
  [
    Alcotest.test_case "ace defaults" `Quick test_ace_defaults;
    Alcotest.test_case "G/L ratios" `Quick test_gl_ratios;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "butterfly preset" `Quick test_butterfly_preset;
    Alcotest.test_case "reference costs" `Quick test_reference_costs;
    Alcotest.test_case "page copy costs" `Quick test_page_copy_costs;
    Alcotest.test_case "location classification" `Quick test_location_classification;
    Alcotest.test_case "protection lattice" `Quick test_prot_lattice;
    Alcotest.test_case "cost sink" `Quick test_cost_sink;
    Alcotest.test_case "frame alloc/exhaustion" `Quick test_frame_alloc_exhaustion;
    Alcotest.test_case "frame double free" `Quick test_frame_double_free;
    Alcotest.test_case "frame double free offline" `Quick test_frame_double_free_offline;
    Alcotest.test_case "frame content transfer" `Quick test_frame_content_transfer;
    Alcotest.test_case "frame cell reset on alloc" `Quick test_frame_alloc_resets_cell;
    Alcotest.test_case "mmu enter/lookup/remove" `Quick test_mmu_enter_lookup_remove;
    Alcotest.test_case "mmu reverse index" `Quick test_mmu_reverse_index;
    Alcotest.test_case "mmu replace updates reverse" `Quick test_mmu_replace_updates_reverse;
    Alcotest.test_case "mmu remove range" `Quick test_mmu_remove_range;
    Alcotest.test_case "mmu phys location" `Quick test_mmu_phys_location;
    Alcotest.test_case "tlb hit/miss counters" `Quick test_tlb_hit_miss_counters;
    Alcotest.test_case "tlb precise shootdown" `Quick test_tlb_invalidate;
    Alcotest.test_case "tlb conflict eviction" `Quick test_tlb_conflict_eviction;
    Alcotest.test_case "tlb flush and sizing" `Quick test_tlb_flush_and_sizing;
    Alcotest.test_case "bus disabled by default" `Quick test_bus_disabled_by_default;
    Alcotest.test_case "bus under capacity" `Quick test_bus_under_capacity_is_free;
    Alcotest.test_case "bus overload queues" `Quick test_bus_overload_queues;
    Alcotest.test_case "bus drains when idle" `Quick test_bus_idle_gap_drains;
    Alcotest.test_case "topology render" `Quick test_topology_render;
  ]
