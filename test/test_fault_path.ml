(* The fault path's data structures against slow references: [Pt] against
   a tuple-keyed model of the same tables, [Mmu]'s forward and reverse
   maps against each other, the flat [Cost_sink] queue against a
   newest-first fold into the profiler, and allocation gates on the
   profiled charge, on a whole fault-heavy run and on a run of TLB
   hits. *)

open Numa_machine
module Profile = Numa_obs.Profile
module System = Numa_system.System
module Report = Numa_system.Report
module App_sig = Numa_apps.App_sig

let qcheck t = QCheck_alcotest.to_alcotest t

(* Minor words [f] allocates, less what the measurement itself costs
   ([Gc.minor_words] boxes its result). Exact for a given binary. *)
let minor_words f =
  let cost g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  cost f -. cost ignore

(* --- the reference page tables --------------------------------------------- *)

(* The tables as they were before keys were packed: (level, prefix) and
   (cpu, vpage) tuples under the polymorphic hash, the full path checked
   on every install, prices through [Cost]. The two loops that take a
   frame per table page visit pages in (level, prefix) order, the order
   [Pt] fixes so that pool exhaustion does not depend on the hash. Same
   decisions, same charges; only the representation differs. Events are
   left out — the real [Pt] runs without sinks here too. *)
module Ref_pt = struct
  type home = Local of Frame_table.local_frame | Global of int

  type table = {
    t_node : int;
    pages : (int * int, home) Hashtbl.t;
    ptes : (int * int, Pt.pte) Hashtbl.t;
  }

  type space = { master : table; replicas : (int, table) Hashtbl.t }

  type t = {
    mode : Pt.mode;
    levels : int;
    bits : int;
    config : Config.t;
    topo : Topo.t;
    frames : Frame_table.t;
    sink : Cost_sink.t;
    spaces : (int, space) Hashtbl.t;
    mutable walks : int;
    mutable walk_levels : int;
    mutable walk_ns : float;
    mutable pte_updates : int;
    mutable pte_shootdowns : int;
    mutable shootdown_ns : float;
    mutable replicas_built : int;
    mutable replicas_dropped : int;
    mutable global_pt_pages : int;
  }

  let create ~config ~frames ~sink ~mode =
    {
      mode;
      levels = 3;
      bits = 8;
      config;
      topo = Config.topology config;
      frames;
      sink;
      spaces = Hashtbl.create 8;
      walks = 0;
      walk_levels = 0;
      walk_ns = 0.;
      pte_updates = 0;
      pte_shootdowns = 0;
      shootdown_ns = 0.;
      replicas_built = 0;
      replicas_dropped = 0;
      global_pt_pages = 0;
    }

  let prefix_at t ~level vpage = vpage lsr (t.bits * (t.levels - level))

  let home_node t = function
    | Local f -> f.Frame_table.node
    | Global prefix -> Topo.global_home t.topo ~lpage:prefix

  let home_place t = function
    | Local f -> Topo.Node f.Frame_table.node
    | Global prefix -> Topo.Shared (prefix mod t.config.Config.global_pages)

  let alloc_page t ~node ~prefix =
    match Frame_table.alloc_pt t.frames ~node with
    | Some f -> Local f
    | None ->
        t.global_pt_pages <- t.global_pt_pages + 1;
        Global prefix

  let free_page t = function Local f -> Frame_table.free_pt t.frames f | Global _ -> ()

  let ensure_path t tbl ~alloc_node ~vpage =
    for level = 0 to t.levels - 1 do
      let prefix = prefix_at t ~level vpage in
      if not (Hashtbl.mem tbl.pages (level, prefix)) then
        Hashtbl.replace tbl.pages (level, prefix) (alloc_page t ~node:alloc_node ~prefix)
    done

  let new_table t ~node =
    let tbl = { t_node = node; pages = Hashtbl.create 16; ptes = Hashtbl.create 64 } in
    Hashtbl.replace tbl.pages (0, 0) (alloc_page t ~node ~prefix:0);
    tbl

  let online t ~node = Frame_table.node_online t.frames ~node

  let pages_by_level tbl =
    List.sort compare (Hashtbl.fold (fun key home acc -> (key, home) :: acc) tbl.pages [])

  let build_replica t space ~node ~by_cpu =
    let r = { t_node = node; pages = Hashtbl.create 16; ptes = Hashtbl.create 64 } in
    List.iter
      (fun ((level, prefix), src_home) ->
        let dst_home = alloc_page t ~node ~prefix in
        Hashtbl.replace r.pages (level, prefix) dst_home;
        Cost_sink.charge t.sink ~cpu:by_cpu ~cat:Profile.Page_copy ~lpage:(-1)
          (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:by_cpu
             ~src:(home_place t src_home) ~dst:(home_place t dst_home)))
      (pages_by_level space.master);
    Hashtbl.iter (fun k pte -> Hashtbl.replace r.ptes k pte) space.master.ptes;
    Hashtbl.replace space.replicas node r;
    t.replicas_built <- t.replicas_built + 1;
    r

  let ensure_space t ~pmap ~cpu =
    match Hashtbl.find_opt t.spaces pmap with
    | Some sp -> sp
    | None ->
        let sp = { master = new_table t ~node:cpu; replicas = Hashtbl.create 4 } in
        Hashtbl.replace t.spaces pmap sp;
        (match t.mode with
        | Pt.Replicated None ->
            for node = 0 to Topo.cpu_nodes t.topo - 1 do
              if node <> sp.master.t_node && online t ~node then
                ignore (build_replica t sp ~node ~by_cpu:cpu)
            done
        | Pt.Off | Pt.Shared | Pt.Replicated (Some _) -> ());
        sp

  let leaf_home t tbl ~vpage =
    match Hashtbl.find_opt tbl.pages (t.levels - 1, prefix_at t ~level:(t.levels - 1) vpage)
    with
    | Some home -> home_node t home
    | None -> tbl.t_node

  let store_ns t ~cpu r ~vpage =
    Cost.node_reference_ns ~topo:t.topo ~access:Access.Store ~cpu
      ~node:(leaf_home t r ~vpage)

  let propagate_update t space ~cpu ~vpage ~lpage pte =
    Hashtbl.iter
      (fun _ r ->
        ensure_path t r ~alloc_node:r.t_node ~vpage;
        Hashtbl.replace r.ptes (cpu, vpage) pte;
        let ns = store_ns t ~cpu r ~vpage in
        t.pte_updates <- t.pte_updates + 1;
        t.shootdown_ns <- t.shootdown_ns +. ns;
        Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns)
      space.replicas

  let propagate_shootdown t space ~cpu ~vpage ~lpage pte_opt =
    Hashtbl.iter
      (fun _ r ->
        if Hashtbl.mem r.ptes (cpu, vpage) then begin
          (match pte_opt with
          | Some pte -> Hashtbl.replace r.ptes (cpu, vpage) pte
          | None -> Hashtbl.remove r.ptes (cpu, vpage));
          let ns = store_ns t ~cpu r ~vpage +. Cost.tlb_shootdown_ns t.config in
          t.pte_shootdowns <- t.pte_shootdowns + 1;
          t.shootdown_ns <- t.shootdown_ns +. ns;
          Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns
        end)
      space.replicas

  let enter t ~pmap ~cpu ~vpage ~lpage ~frame ~prot =
    let sp = ensure_space t ~pmap ~cpu in
    ensure_path t sp.master ~alloc_node:cpu ~vpage;
    let pte = { Pt.pte_lpage = lpage; pte_frame = frame; pte_prot = prot } in
    Hashtbl.replace sp.master.ptes (cpu, vpage) pte;
    propagate_update t sp ~cpu ~vpage ~lpage pte

  let remove t ~pmap ~cpu ~vpage ~lpage =
    match Hashtbl.find_opt t.spaces pmap with
    | None -> ()
    | Some sp ->
        Hashtbl.remove sp.master.ptes (cpu, vpage);
        propagate_shootdown t sp ~cpu ~vpage ~lpage None

  let update_pte t ~pmap ~cpu ~vpage ~lpage f =
    match Hashtbl.find_opt t.spaces pmap with
    | None -> ()
    | Some sp -> (
        match Hashtbl.find_opt sp.master.ptes (cpu, vpage) with
        | None -> ()
        | Some old ->
            let pte = f old in
            Hashtbl.replace sp.master.ptes (cpu, vpage) pte;
            propagate_shootdown t sp ~cpu ~vpage ~lpage (Some pte))

  let update_phys t ~pmap ~cpu ~vpage ~lpage ~frame =
    update_pte t ~pmap ~cpu ~vpage ~lpage (fun old ->
        { old with Pt.pte_lpage = lpage; pte_frame = frame })

  let update_prot t ~pmap ~cpu ~vpage ~lpage ~prot =
    update_pte t ~pmap ~cpu ~vpage ~lpage (fun old -> { old with Pt.pte_prot = prot })

  let walk t ~pmap ~cpu ~vpage ~lpage =
    match t.mode with
    | Pt.Off -> ()
    | Pt.Shared | Pt.Replicated _ ->
        let sp = ensure_space t ~pmap ~cpu in
        let tbl =
          match t.mode with
          | Pt.Off | Pt.Shared -> sp.master
          | Pt.Replicated cap -> (
              if cpu = sp.master.t_node then sp.master
              else
                match Hashtbl.find_opt sp.replicas cpu with
                | Some r -> r
                | None -> (
                    match cap with
                    | Some n when Hashtbl.length sp.replicas < n && online t ~node:cpu ->
                        build_replica t sp ~node:cpu ~by_cpu:cpu
                    | Some _ | None -> sp.master))
        in
        let read = ref 0 and ns = ref 0. in
        (try
           for level = 0 to t.levels - 1 do
             match Hashtbl.find_opt tbl.pages (level, prefix_at t ~level vpage) with
             | Some home ->
                 incr read;
                 ns :=
                   !ns
                   +. Cost.node_reference_ns ~topo:t.topo ~access:Access.Load ~cpu
                        ~node:(home_node t home)
             | None -> raise Exit
           done
         with Exit -> ());
        t.walks <- t.walks + 1;
        t.walk_levels <- t.walk_levels + !read;
        t.walk_ns <- t.walk_ns +. !ns;
        Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_walk ~lpage !ns

  let sorted_pmaps t =
    List.sort Int.compare (Hashtbl.fold (fun pmap _ acc -> pmap :: acc) t.spaces [])

  let node_offline t ~node =
    List.iter
      (fun pmap ->
        let sp = Hashtbl.find t.spaces pmap in
        (match Hashtbl.find_opt sp.replicas node with
        | None -> ()
        | Some r ->
            Hashtbl.iter (fun _ home -> free_page t home) r.pages;
            Hashtbl.remove sp.replicas node;
            t.replicas_dropped <- t.replicas_dropped + 1);
        let doomed =
          List.filter
            (fun (_, home) ->
              match home with Local f -> f.Frame_table.node = node | Global _ -> false)
            (pages_by_level sp.master)
        in
        let target =
          Topo.nearest_cpu t.topo ~from:node ~ok:(fun n ->
              n <> node && online t ~node:n
              && Frame_table.local_in_use t.frames ~node:n
                 < Frame_table.local_capacity t.frames ~node:n)
        in
        List.iter
          (fun ((level, prefix), home) ->
            free_page t home;
            let fresh =
              match target with
              | Some n -> alloc_page t ~node:n ~prefix
              | None ->
                  t.global_pt_pages <- t.global_pt_pages + 1;
                  Global prefix
            in
            Hashtbl.replace sp.master.pages (level, prefix) fresh;
            Cost_sink.charge t.sink ~cpu:node ~cat:Profile.Page_copy ~lpage:(-1)
              (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:node
                 ~src:(home_place t home) ~dst:(home_place t fresh)))
          doomed)
      (sorted_pmaps t)

  let daemon_sweep t ~by_cpu =
    match t.mode with
    | Pt.Off | Pt.Shared | Pt.Replicated (Some _) -> 0
    | Pt.Replicated None ->
        let built = ref 0 in
        List.iter
          (fun pmap ->
            let sp = Hashtbl.find t.spaces pmap in
            for node = 0 to Topo.cpu_nodes t.topo - 1 do
              if
                node <> sp.master.t_node && online t ~node
                && not (Hashtbl.mem sp.replicas node)
              then begin
                ignore (build_replica t sp ~node ~by_cpu);
                incr built
              end
            done)
          (sorted_pmaps t);
        !built

  let corrupt_replica t ~lpage =
    let hit = ref None in
    List.iter
      (fun pmap ->
        if !hit = None then
          let sp = Hashtbl.find t.spaces pmap in
          let nodes =
            List.sort Int.compare (Hashtbl.fold (fun n _ acc -> n :: acc) sp.replicas [])
          in
          List.iter
            (fun node ->
              if !hit = None then
                let r = Hashtbl.find sp.replicas node in
                let victim =
                  Hashtbl.fold
                    (fun key (pte : Pt.pte) best ->
                      if pte.pte_lpage <> lpage then best
                      else
                        match best with
                        | Some (k, _) when compare k key <= 0 -> best
                        | _ -> Some (key, pte))
                    r.ptes None
                in
                match victim with
                | None -> ()
                | Some (key, pte) ->
                    Hashtbl.replace r.ptes key { pte with pte_lpage = pte.pte_lpage + 1 };
                    hit := Some (pmap, node))
            nodes)
      (sorted_pmaps t);
    !hit

  let ptes tbl = Hashtbl.fold (fun key pte acc -> (key, pte) :: acc) tbl.ptes []

  let master_ptes t ~pmap =
    match Hashtbl.find_opt t.spaces pmap with None -> [] | Some sp -> ptes sp.master

  let replica_ptes t ~pmap ~node =
    match Hashtbl.find_opt t.spaces pmap with
    | None -> []
    | Some sp -> (
        match Hashtbl.find_opt sp.replicas node with None -> [] | Some r -> ptes r)

  let table_frames t =
    let acc = ref [] in
    let add tbl =
      Hashtbl.iter
        (fun _ home ->
          match home with
          | Local f -> acc := (f.Frame_table.node, f) :: !acc
          | Global _ -> ())
        tbl.pages
    in
    Hashtbl.iter
      (fun _ sp ->
        add sp.master;
        Hashtbl.iter (fun _ r -> add r) sp.replicas)
      t.spaces;
    !acc

  let stats t =
    {
      Pt.walks = t.walks;
      walk_levels = t.walk_levels;
      walk_ns = t.walk_ns;
      pte_updates = t.pte_updates;
      pte_shootdowns = t.pte_shootdowns;
      shootdown_ns = t.shootdown_ns;
      replicas_built = t.replicas_built;
      replicas_dropped = t.replicas_dropped;
      pt_frames =
        Array.init (Topo.cpu_nodes t.topo) (fun node ->
            Frame_table.pt_in_use t.frames ~node);
      global_pt_pages = t.global_pt_pages;
    }
end

(* --- Pt against the reference ----------------------------------------------- *)

type pt_op =
  | Enter of { pmap : int; cpu : int; vpage : int; lpage : int; frame_node : int option }
  | Remove of { pmap : int; cpu : int; vpage : int; lpage : int }
  | Update_prot of { pmap : int; cpu : int; vpage : int; lpage : int; prot : Prot.t }
  | Update_phys of {
      pmap : int;
      cpu : int;
      vpage : int;
      lpage : int;
      frame_node : int option;
    }
  | Walk of { pmap : int; cpu : int; vpage : int; lpage : int }
  | Node_offline of int
  | Node_online of int
  | Daemon_sweep of int
  | Corrupt_replica of int
  | Set_context of Profile.context
  | Drain of int

let pp_pt_op = function
  | Enter { pmap; cpu; vpage; lpage; frame_node } ->
      Printf.sprintf "enter(p%d c%d v%d l%d %s)" pmap cpu vpage lpage
        (match frame_node with Some n -> Printf.sprintf "n%d" n | None -> "global")
  | Remove { pmap; cpu; vpage; lpage } ->
      Printf.sprintf "remove(p%d c%d v%d l%d)" pmap cpu vpage lpage
  | Update_prot { pmap; cpu; vpage; lpage; prot } ->
      Printf.sprintf "prot(p%d c%d v%d l%d %s)" pmap cpu vpage lpage (Prot.to_string prot)
  | Update_phys { pmap; cpu; vpage; lpage; _ } ->
      Printf.sprintf "phys(p%d c%d v%d l%d)" pmap cpu vpage lpage
  | Walk { pmap; cpu; vpage; lpage } ->
      Printf.sprintf "walk(p%d c%d v%d l%d)" pmap cpu vpage lpage
  | Node_offline n -> Printf.sprintf "offline(%d)" n
  | Node_online n -> Printf.sprintf "online(%d)" n
  | Daemon_sweep c -> Printf.sprintf "sweep(c%d)" c
  | Corrupt_replica l -> Printf.sprintf "corrupt(l%d)" l
  | Set_context ctx -> Printf.sprintf "ctx(%s)" (Profile.context_name ctx)
  | Drain c -> Printf.sprintf "drain(c%d)" c

type pt_case = {
  n_cpus : int;
  multi_socket : bool;
  pool : int;  (** local frames per node: small pools push tables to the shared level *)
  mode : Pt.mode;
  ops : pt_op list;
}

let pp_case c =
  Printf.sprintf "%d cpus %s pool %d mode %s: %s" c.n_cpus
    (if c.multi_socket then "multi-socket" else "ace")
    c.pool (Pt.mode_to_string c.mode)
    (String.concat "; " (List.map pp_pt_op c.ops))

let pt_case_gen =
  let open QCheck.Gen in
  let* n_cpus = int_range 1 7 in
  let* multi_socket = bool in
  let* pool = int_range 2 24 in
  let* mode =
    oneof
      [
        return Pt.Off;
        return Pt.Shared;
        return (Pt.Replicated None);
        map (fun n -> Pt.Replicated (Some n)) (int_range 1 3);
      ]
  in
  let cpu = int_bound (n_cpus - 1) and pmap = int_bound 2 and lpage = int_bound 40 in
  (* Several leaf pages under one directory, a second directory, and the
     odd far-away page: paths are shared, extended and started afresh. *)
  let vpage =
    frequency
      [ (6, int_bound 1200); (3, int_range 65_000 66_500); (1, int_bound (1 lsl 22)) ]
  in
  let frame_node = opt cpu in
  let target = quad pmap cpu vpage lpage in
  let op =
    frequency
      [
        ( 8,
          map2
            (fun (pmap, cpu, vpage, lpage) frame_node ->
              Enter { pmap; cpu; vpage; lpage; frame_node })
            target frame_node );
        ( 3,
          map
            (fun (pmap, cpu, vpage, lpage) -> Remove { pmap; cpu; vpage; lpage })
            target );
        ( 2,
          map2
            (fun (pmap, cpu, vpage, lpage) prot ->
              Update_prot { pmap; cpu; vpage; lpage; prot })
            target
            (oneofl [ Prot.No_access; Prot.Read_only; Prot.Read_write ]) );
        ( 2,
          map2
            (fun (pmap, cpu, vpage, lpage) frame_node ->
              Update_phys { pmap; cpu; vpage; lpage; frame_node })
            target frame_node );
        (6, map (fun (pmap, cpu, vpage, lpage) -> Walk { pmap; cpu; vpage; lpage }) target);
        (1, map (fun n -> Node_offline n) cpu);
        (1, map (fun n -> Node_online n) cpu);
        (1, map (fun c -> Daemon_sweep c) cpu);
        (1, map (fun l -> Corrupt_replica l) lpage);
        ( 1,
          map
            (fun c -> Set_context c)
            (oneofl [ Profile.App; Profile.Daemon; Profile.Degradation ]) );
        (1, map (fun c -> Drain c) cpu);
      ]
  in
  let* ops = list_size (int_range 1 150) op in
  return { n_cpus; multi_socket; pool; mode; ops }

let bits = Int64.bits_of_float

let stats_bits (s : Pt.stats) =
  ( (s.walks, s.walk_levels, bits s.walk_ns, s.pte_updates),
    (s.pte_shootdowns, bits s.shootdown_ns, s.replicas_built, s.replicas_dropped),
    (Array.to_list s.pt_frames, s.global_pt_pages) )

(* PTE frames come from two frame tables whose free lists may hand out
   different frame ids; the node is what the tables depend on. *)
let pte_view ((cpu, vpage), (pte : Pt.pte)) =
  ( (cpu, vpage),
    pte.pte_lpage,
    Option.map (fun (f : Frame_table.local_frame) -> f.node) pte.pte_frame,
    pte.pte_prot )

let sorted_ptes l = List.sort compare (List.map pte_view l)
let census l = List.sort Int.compare (List.map fst l)

let run_pt_case c =
  let config =
    if c.multi_socket then
      Config.multi_socket ~n_cpus:c.n_cpus ~local_pages_per_cpu:c.pool ()
    else Config.ace ~n_cpus:c.n_cpus ~local_pages_per_cpu:c.pool ()
  in
  let n_nodes = Topo.n_nodes (Config.topology config) in
  let side () =
    let frames = Frame_table.create config in
    let sink = Cost_sink.create ~n_cpus:c.n_cpus in
    let profile = Profile.create ~n_cpus:c.n_cpus ~n_nodes ~n_pages:64 in
    Cost_sink.set_profile sink (Some profile);
    (frames, sink, profile)
  in
  let frames, sink, profile = side () in
  let r_frames, r_sink, r_profile = side () in
  let pt = Pt.create ~config ~frames ~sink ~mode:c.mode () in
  let r = Ref_pt.create ~config ~frames:r_frames ~sink:r_sink ~mode:c.mode in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  (* Data frames draw on the same pools as table pages, on both sides. *)
  let frame_pair = function
    | None -> (None, None)
    | Some node -> (
        match
          (Frame_table.alloc_local frames ~node, Frame_table.alloc_local r_frames ~node)
        with
        | Some a, Some b -> (Some a, Some b)
        | None, None -> (None, None)
        | _ -> fail "data frame allocation diverged on node %d" node)
  in
  List.iteri
    (fun step op ->
      (match op with
      | Enter { pmap; cpu; vpage; lpage; frame_node } ->
          let f, rf = frame_pair frame_node in
          Pt.enter pt ~pmap ~cpu ~vpage ~lpage ~frame:f ~prot:Prot.Read_write;
          Ref_pt.enter r ~pmap ~cpu ~vpage ~lpage ~frame:rf ~prot:Prot.Read_write
      | Remove { pmap; cpu; vpage; lpage } ->
          Pt.remove pt ~pmap ~cpu ~vpage ~lpage;
          Ref_pt.remove r ~pmap ~cpu ~vpage ~lpage
      | Update_prot { pmap; cpu; vpage; lpage; prot } ->
          Pt.update_prot pt ~pmap ~cpu ~vpage ~lpage ~prot;
          Ref_pt.update_prot r ~pmap ~cpu ~vpage ~lpage ~prot
      | Update_phys { pmap; cpu; vpage; lpage; frame_node } ->
          let f, rf = frame_pair frame_node in
          Pt.update_phys pt ~pmap ~cpu ~vpage ~lpage ~frame:f;
          Ref_pt.update_phys r ~pmap ~cpu ~vpage ~lpage ~frame:rf
      | Walk { pmap; cpu; vpage; lpage } ->
          Pt.walk pt ~pmap ~cpu ~vpage ~lpage;
          Ref_pt.walk r ~pmap ~cpu ~vpage ~lpage
      | Node_offline node ->
          Frame_table.set_node_online frames ~node false;
          Frame_table.set_node_online r_frames ~node false;
          Pt.node_offline pt ~node;
          Ref_pt.node_offline r ~node
      | Node_online node ->
          Frame_table.set_node_online frames ~node true;
          Frame_table.set_node_online r_frames ~node true
      | Daemon_sweep by_cpu ->
          let a = Pt.daemon_sweep pt ~by_cpu and b = Ref_pt.daemon_sweep r ~by_cpu in
          if a <> b then fail "step %d: daemon_sweep built %d, reference %d" step a b
      | Corrupt_replica lpage ->
          if Pt.corrupt_replica pt ~lpage <> Ref_pt.corrupt_replica r ~lpage then
            fail "step %d: corrupt_replica hit a different replica" step
      | Set_context ctx ->
          Profile.set_context profile ctx;
          Profile.set_context r_profile ctx
      | Drain cpu ->
          let a = Cost_sink.drain sink ~cpu and b = Cost_sink.drain r_sink ~cpu in
          if bits a <> bits b then fail "step %d: drained %h vs reference %h" step a b);
      if stats_bits (Pt.stats pt) <> stats_bits (Ref_pt.stats r) then
        fail "step %d (%s): stats diverge" step (pp_pt_op op);
      for cpu = 0 to c.n_cpus - 1 do
        let a = Cost_sink.total_charged sink ~cpu
        and b = Cost_sink.total_charged r_sink ~cpu in
        if bits a <> bits b then
          fail "step %d (%s): cpu %d charged %h, reference %h" step (pp_pt_op op) cpu a b
      done)
    c.ops;
  for pmap = 0 to 2 do
    if sorted_ptes (Pt.master_ptes pt ~pmap) <> sorted_ptes (Ref_pt.master_ptes r ~pmap)
    then fail "pmap %d: master PTEs diverge" pmap;
    for node = 0 to c.n_cpus - 1 do
      if
        sorted_ptes (Pt.replica_ptes pt ~pmap ~node)
        <> sorted_ptes (Ref_pt.replica_ptes r ~pmap ~node)
      then fail "pmap %d: replica PTEs on node %d diverge" pmap node
    done
  done;
  if census (Pt.table_frames pt) <> census (Ref_pt.table_frames r) then
    fail "table-frame census diverges";
  (* Everything still queued reaches both profilers in the same order. *)
  for cpu = 0 to c.n_cpus - 1 do
    ignore (Cost_sink.drain sink ~cpu);
    ignore (Cost_sink.drain r_sink ~cpu)
  done;
  if Profile.snapshot profile <> Profile.snapshot r_profile then fail "profiles diverge";
  true

let prop_pt_matches_reference =
  QCheck.Test.make ~name:"Pt matches the tuple-keyed reference" ~count:300
    (QCheck.make ~print:pp_case pt_case_gen)
    run_pt_case

(* --- Mmu forward and reverse maps ------------------------------------------- *)

type mmu_op =
  | M_enter of int * int * int * int  (** pmap, cpu, vpage, lpage *)
  | M_remove of int * int * int  (** pmap, cpu, vpage *)
  | M_remove_range of int * int * int  (** pmap, vpage, n *)
  | M_remove_entry of int * int  (** lpage, index into its list *)

let pp_mmu_op = function
  | M_enter (p, c, v, l) -> Printf.sprintf "enter(p%d c%d v%d l%d)" p c v l
  | M_remove (p, c, v) -> Printf.sprintf "remove(p%d c%d v%d)" p c v
  | M_remove_range (p, v, n) -> Printf.sprintf "remove_range(p%d v%d n%d)" p v n
  | M_remove_entry (l, i) -> Printf.sprintf "remove_entry(l%d #%d)" l i

let mmu_n_cpus = 4
let mmu_pmaps = 3

(* Logical pages run past the config's global pages, so the reverse
   index has to grow. *)
let mmu_config () = Config.ace ~n_cpus:mmu_n_cpus ~local_pages_per_cpu:8 ~global_pages:16 ()
let mmu_lpages = 40

let mmu_ops_gen =
  let open QCheck.Gen in
  let pmap = int_bound (mmu_pmaps - 1)
  and cpu = int_bound (mmu_n_cpus - 1)
  and vpage = int_bound 30
  and lpage = int_bound (mmu_lpages - 1) in
  list_size (int_range 1 200)
    (frequency
       [
         ( 6,
           map2
             (fun (p, c) (v, l) -> M_enter (p, c, v, l))
             (pair pmap cpu) (pair vpage lpage) );
         (2, map3 (fun p c v -> M_remove (p, c, v)) pmap cpu vpage);
         (1, map3 (fun p v n -> M_remove_range (p, v, n)) pmap vpage (int_bound 6));
         (2, map2 (fun l i -> M_remove_entry (l, i)) lpage (int_bound 4));
       ])

let prop_mmu_reverse_index =
  QCheck.Test.make ~name:"Mmu reverse lists hold each forward entry once" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_mmu_op ops))
       mmu_ops_gen)
    (fun ops ->
      let t = Mmu.create (mmu_config ()) in
      List.iter
        (function
          | M_enter (pmap, cpu, vpage, lpage) ->
              Mmu.enter t ~pmap ~cpu ~vpage ~lpage ~prot:Prot.Read_only
                ~phys:(Mmu.Global_frame lpage)
          | M_remove (pmap, cpu, vpage) -> Mmu.remove t ~pmap ~cpu ~vpage
          | M_remove_range (pmap, vpage, n) -> Mmu.remove_range t ~pmap ~vpage ~n
          | M_remove_entry (lpage, i) -> (
              match List.nth_opt (Mmu.entries_of_lpage t ~lpage) i with
              | Some e -> Mmu.remove_entry t e
              | None -> ()))
        ops;
      let forward =
        List.concat_map
          (fun pmap -> Mmu.entries_of_pmap t ~pmap)
          (List.init mmu_pmaps Fun.id)
      in
      let reverse =
        List.concat_map
          (fun lpage -> Mmu.entries_of_lpage t ~lpage)
          (List.init mmu_lpages Fun.id)
      in
      let count e l = List.length (List.filter (fun x -> x == e) l) in
      if List.length forward <> Mmu.n_mappings t then
        QCheck.Test.fail_reportf "%d mappings, %d reachable by pmap" (Mmu.n_mappings t)
          (List.length forward);
      List.iter
        (fun (e : Mmu.entry) ->
          if count e (Mmu.entries_of_lpage t ~lpage:e.lpage) <> 1 then
            QCheck.Test.fail_reportf "p%d c%d v%d: %d times in lpage %d's list" e.pmap e.cpu
              e.vpage (count e (Mmu.entries_of_lpage t ~lpage:e.lpage)) e.lpage;
          match Mmu.lookup t ~pmap:e.pmap ~cpu:e.cpu ~vpage:e.vpage with
          | Some e' when e' == e -> ()
          | Some _ | None -> QCheck.Test.fail_reportf "lookup misses a forward entry")
        forward;
      List.iter
        (fun (e : Mmu.entry) ->
          if count e forward <> 1 then
            QCheck.Test.fail_reportf "reverse lists hold a dropped mapping p%d c%d v%d"
              e.pmap e.cpu e.vpage)
        reverse;
      List.length reverse = List.length forward)

(* --- the flat Cost_sink queue -------------------------------------------- *)

let all_cats =
  Profile.
    [
      Fault_trap;
      Pmap_action;
      Page_copy;
      Zero_fill;
      Tlb_shootdown;
      Disk_read;
      Disk_write;
      Pt_walk;
      Pt_shootdown;
    ]

let all_ctxs = Profile.[ App; Daemon; Degradation ]

(* More charges than a queue starts with, distinct amounts whose float
   sums depend on order, lpage -1 among real pages, every category in
   every context: the drain must profile them exactly as a newest-first
   fold of [Profile.charge_kernel] would. *)
let test_cost_sink_queue () =
  let n_cpus = 2 and n_pages = 8 in
  let sink = Cost_sink.create ~n_cpus in
  let p = Profile.create ~n_cpus ~n_nodes:2 ~n_pages in
  Cost_sink.set_profile sink (Some p);
  let charges = ref [] in
  let i = ref 0 in
  List.iter
    (fun ctx ->
      Profile.set_context p ctx;
      List.iter
        (fun cat ->
          for _ = 1 to 5 do
            incr i;
            let lpage = (!i mod (n_pages + 1)) - 1 in
            let ns = (float_of_int !i *. 0.1) +. (1e9 /. float_of_int (!i * !i)) in
            Cost_sink.charge sink ~cpu:1 ~cat ~lpage ns;
            charges := (ctx, cat, lpage, ns) :: !charges
          done)
        all_cats)
    all_ctxs;
  Alcotest.(check int) "135 charges queued" 135 (List.length !charges);
  ignore (Cost_sink.drain sink ~cpu:1);
  let fold order =
    let q = Profile.create ~n_cpus ~n_nodes:2 ~n_pages in
    List.iter
      (fun (ctx, cat, lpage, ns) -> Profile.charge_kernel q ~cpu:1 ~ctx ~cat ~lpage ns)
      order;
    Profile.snapshot ~top:n_pages q
  in
  let newest_first = fold !charges in
  let got = Profile.snapshot ~top:n_pages p in
  let same a b =
    List.for_all2
      (fun (x : Profile.tree_node) (y : Profile.tree_node) ->
        bits x.ns = bits y.ns
        && List.for_all2 (fun (_, u) (_, v) -> bits u = bits v) x.children y.children)
      a.Profile.categories b.Profile.categories
    && List.for_all2
         (fun (l, u) (m, v) -> l = m && bits u = bits v)
         a.Profile.hot_pages b.Profile.hot_pages
  in
  Alcotest.(check bool) "bit-equal to the newest-first fold" true (same got newest_first);
  (* The amounts are chosen so that order shows: the oldest-first fold
     differs somewhere, so the check above can tell the two apart. *)
  Alcotest.(check bool) "oldest-first fold differs" false
    (same got (fold (List.rev !charges)));
  Alcotest.(check int) "lpage -1 reaches no page" n_pages
    (List.length got.Profile.hot_pages)

let test_cost_sink_charge_allocation () =
  let sink = Cost_sink.create ~n_cpus:1 in
  Cost_sink.set_profile sink (Some (Profile.create ~n_cpus:1 ~n_nodes:1 ~n_pages:4));
  let burst () =
    for lpage = -1 to 62 do
      Cost_sink.charge sink ~cpu:0 ~cat:Profile.Pt_shootdown ~lpage 1250.
    done
  in
  (* Warm up: the queue grows to the burst once. *)
  burst ();
  ignore (Cost_sink.drain sink ~cpu:0);
  let words = minor_words burst in
  if words <> 0. then
    Alcotest.failf "64 profiled charges allocated %.0f minor words (gate: 0)" words

(* --- the fault path as a whole ---------------------------------------------- *)

(* A small cousin of the fault-storm benchmark: writes ping-pong pages
   between sockets, every fault walks replicated tables and shoots down
   six replicas, the profiler queues every charge. Gc.minor_words is
   exact for a given binary; boxed keys, queue records or unguarded
   events on this path show up here at once. *)
let test_fault_path_allocation_gate () =
  let config = Config.multi_socket ~n_cpus:7 () in
  let sys =
    System.create ~policy:System.Never_pin ~profiling:true ~pt_mode:(Pt.Replicated None)
      ~config ()
  in
  Numa_apps.Primes3.app.App_sig.setup sys { App_sig.nthreads = 7; scale = 0.1; seed = 42L };
  let before = Gc.minor_words () in
  let report = System.run sys in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int report.Report.n_events in
  if per_event > 75. then
    Alcotest.failf "primes3 fault path allocated %.1f words per event (gate: 75)" per_event

(* The hit path: one thread re-reads eight pages it has already made
   resident, so after the first pass every page batch is a software-TLB
   hit with no kernel work pending. Each span costs one effect round
   trip; the rest is the engine's per-batch hand-off and
   [System.do_access]'s hit step. Measured on this run: 31.7 words per
   event when each access returned a boxed cost record, each chunk built
   an outcome record and the hit step resolved node and location from
   the frame; 6.4 with the costs in the memory's scratch record, the
   outcome in the engine's, and node and location read off the MMU
   entry. Most of what is left is the span's own round trip. *)
let test_hit_path_allocation_gate () =
  let config = Config.ace ~n_cpus:1 ~local_pages_per_cpu:32 ~global_pages:64 () in
  let sys = System.create ~config () in
  let pages = 8 and words_per_page = 64 in
  let data =
    System.alloc_region sys ~name:"resident" ~kind:Numa_vm.Region_attr.Data
      ~sharing:Numa_vm.Region_attr.Declared_private ~pages ()
  in
  let base_vpage = data.System.base_vpage in
  let n = pages * words_per_page in
  ignore
    (System.spawn sys ~cpu:0 ~name:"reader" (fun ~stack_vpage:_ ->
         Numa_sim.Api.span Access.Store ~base_vpage ~words_per_page ~lo:0 ~n ~stride:1;
         for _ = 1 to 1000 do
           Numa_sim.Api.span Access.Load ~base_vpage ~words_per_page ~lo:0 ~n ~stride:1
         done));
  let before = Gc.minor_words () in
  let report = System.run sys in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int report.Report.n_events in
  if per_event > 16. then
    Alcotest.failf "resident re-reads allocated %.1f words per event (gate: 16)" per_event

let suite =
  [
    qcheck prop_pt_matches_reference;
    qcheck prop_mmu_reverse_index;
    Alcotest.test_case "cost sink queue drains newest first" `Quick test_cost_sink_queue;
    Alcotest.test_case "profiled charge allocates nothing" `Quick
      test_cost_sink_charge_allocation;
    Alcotest.test_case "fault path allocation gate" `Quick test_fault_path_allocation_gate;
    Alcotest.test_case "hit path allocation gate" `Quick test_hit_path_allocation_gate;
  ]
