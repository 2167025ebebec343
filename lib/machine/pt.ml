module Hub = Numa_obs.Hub
module Event = Numa_obs.Event
module Profile = Numa_obs.Profile

type mode = Off | Shared | Replicated of int option

let mode_to_string = function
  | Off -> "none"
  | Shared -> "shared"
  | Replicated None -> "replicated"
  | Replicated (Some n) -> Printf.sprintf "replicated:%d" n

let mode_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok Off
  | [ "shared" ] -> Ok Shared
  | [ "replicated" ] -> Ok (Replicated None)
  | [ "replicated"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Replicated (Some n))
      | Some _ | None ->
          Error (Printf.sprintf "pt-mode replicated:%s: cap must be a positive integer" n))
  | _ ->
      Error
        (Printf.sprintf "unknown pt-mode %S (expected none, shared, replicated or \
                         replicated:N)" s)

type pte = {
  pte_lpage : int;
  pte_frame : Frame_table.local_frame option;
  pte_prot : Prot.t;
}

(* One radix-table page. [home] is where its backing memory physically
   sits: a frame taken from a node's pool, or the shared level when the
   pool refused (the pseudo-page [prefix] picks the stripe home). *)
type home = Local of Frame_table.local_frame | Global of int

(* Both maps of a table are keyed on one packed int, so a lookup hashes
   an immediate instead of a tuple. A table page is keyed
   [(prefix lsl 2) lor level] (there are fewer than 4 levels). A leaf PTE
   is keyed [(cpu lsl 40) lor vpage], so int order on PTE keys is
   (cpu, vpage) order; [enter] rejects a cpu or vpage that does not fit. *)
let page_key ~level ~prefix = (prefix lsl 2) lor level
let vpage_bits = 40
let pte_key ~cpu ~vpage = (cpu lsl vpage_bits) lor vpage
let pte_key_fits ~cpu ~vpage = cpu lsr (62 - vpage_bits) = 0 && vpage lsr vpage_bits = 0
let unpack_pte_key k = (k lsr vpage_bits, k land ((1 lsl vpage_bits) - 1))

type table = {
  t_node : int;  (** master: first-touch node; replica: its node *)
  pages : home Int_tbl.t;  (** [page_key] -> page home *)
  ptes : pte Int_tbl.t;  (** [pte_key] -> leaf entry *)
}

type space = {
  sp_pmap : int;
  master : table;
  replicas : table Int_tbl.t;  (** node -> full table copy *)
}

(* The two nanosecond totals live in a float array, which holds them
   unboxed: a mutable float field beside int fields boxes on every
   update. *)
let walk_slot = 0
let shootdown_slot = 1

type counters = {
  mutable c_walks : int;
  mutable c_walk_levels : int;
  c_ns : float array;  (** indexed by [walk_slot] and [shootdown_slot] *)
  mutable c_pte_updates : int;
  mutable c_pte_shootdowns : int;
  mutable c_replicas_built : int;
  mutable c_replicas_dropped : int;
  mutable c_global_pt_pages : int;
}

type t = {
  mode : mode;
  levels : int;
  bits : int;
  config : Config.t;
  topo : Topo.t;
  frames : Frame_table.t;
  sink : Cost_sink.t;
  obs : Hub.t;
  spaces : space Int_tbl.t;  (** pmap -> its tables *)
  c : counters;
}

let create ?obs ~config ~frames ~sink ~mode () =
  {
    mode;
    levels = 3;
    bits = 8;
    config;
    topo = Config.topology config;
    frames;
    sink;
    obs = (match obs with Some h -> h | None -> Hub.create ());
    spaces = Int_tbl.create 8;
    c =
      {
        c_walks = 0;
        c_walk_levels = 0;
        c_ns = [| 0.; 0. |];
        c_pte_updates = 0;
        c_pte_shootdowns = 0;
        c_replicas_built = 0;
        c_replicas_dropped = 0;
        c_global_pt_pages = 0;
      };
  }

let mode t = t.mode
let levels t = t.levels

(* Path prefix of [vpage] at radix [level]: the root (level 0) has one
   page, each deeper level refines by [bits] index bits. Vpages small
   enough share the level-1 directory page, as real address spaces do. *)
let prefix_at t ~level vpage = vpage lsr (t.bits * (t.levels - level))

let home_node t = function
  | Local f -> f.Frame_table.node
  | Global prefix -> Topo.global_home t.topo ~lpage:prefix

let home_place t = function
  | Local f -> Topo.Node f.Frame_table.node
  | Global prefix -> Topo.Shared (prefix mod t.config.Config.global_pages)

(* Allocate the backing for one table page, preferring [node]'s pool and
   falling back to the shared level when it is full, squeezed or offline
   (the table still exists — it just lives in slow memory). *)
let alloc_page t ~node ~prefix =
  match Frame_table.alloc_pt t.frames ~node with
  | Some f -> Local f
  | None ->
      t.c.c_global_pt_pages <- t.c.c_global_pt_pages + 1;
      Global prefix

let free_page t = function
  | Local f -> Frame_table.free_pt t.frames f
  | Global _ -> ()

let ensure_page t tbl ~alloc_node ~level ~prefix =
  let key = page_key ~level ~prefix in
  if not (Int_tbl.mem tbl.pages key) then
    Int_tbl.replace tbl.pages key (alloc_page t ~node:alloc_node ~prefix)

let leaf_page_key t vpage =
  let level = t.levels - 1 in
  page_key ~level ~prefix:(prefix_at t ~level vpage)

(* Path pages are only ever added a whole path at a time (here, or copied
   wholesale by [build_replica]), so a present leaf page means every page
   above it is present too: one lookup settles the common case. *)
let ensure_path t tbl ~alloc_node ~vpage =
  if not (Int_tbl.mem tbl.pages (leaf_page_key t vpage)) then
    for level = 0 to t.levels - 1 do
      ensure_page t tbl ~alloc_node ~level ~prefix:(prefix_at t ~level vpage)
    done

let new_table t ~node =
  let tbl = { t_node = node; pages = Int_tbl.create 16; ptes = Int_tbl.create 64 } in
  ensure_page t tbl ~alloc_node:node ~level:0 ~prefix:0;
  tbl

let online t ~node = Frame_table.node_online t.frames ~node

(* A table's pages root first, then by prefix. The loops that allocate a
   frame per page walk them in this fixed order, so which pages fall back
   to the shared level when a pool runs dry never depends on the hash
   table's layout — and it is leaves, not the pages every walk reads,
   that fall back. *)
let pages_by_level tbl =
  let level_major k = ((k land 3) lsl 60) lor (k lsr 2) in
  List.sort
    (fun (a, _) (b, _) -> Int.compare (level_major a) (level_major b))
    (Int_tbl.fold (fun key home acc -> (key, home) :: acc) tbl.pages [])

(* Materialise a full copy of the master on [node]: every table page is
   copied (a real page copy, charged to [by_cpu] like any other), every
   PTE mirrored. *)
let build_replica t space ~node ~by_cpu =
  let r = { t_node = node; pages = Int_tbl.create 16; ptes = Int_tbl.create 64 } in
  let copied = ref 0 in
  List.iter
    (fun (key, src_home) ->
      let dst_home = alloc_page t ~node ~prefix:(key lsr 2) in
      Int_tbl.replace r.pages key dst_home;
      incr copied;
      Cost_sink.charge t.sink ~cpu:by_cpu ~cat:Profile.Page_copy ~lpage:(-1)
        (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:by_cpu
           ~src:(home_place t src_home) ~dst:(home_place t dst_home)))
    (pages_by_level space.master);
  Int_tbl.iter (fun k pte -> Int_tbl.replace r.ptes k pte) space.master.ptes;
  Int_tbl.replace space.replicas node r;
  t.c.c_replicas_built <- t.c.c_replicas_built + 1;
  if Hub.enabled t.obs then
    Hub.emit t.obs
      (Event.Pt_replica_create { pmap = space.sp_pmap; node; frames = !copied });
  r

let ensure_space t ~pmap ~cpu =
  match Int_tbl.find t.spaces pmap with
  | sp -> sp
  | exception Not_found ->
      let sp =
        { sp_pmap = pmap; master = new_table t ~node:cpu; replicas = Int_tbl.create 4 }
      in
      Int_tbl.replace t.spaces pmap sp;
      (match t.mode with
      | Replicated None ->
          for node = 0 to Topo.cpu_nodes t.topo - 1 do
            if node <> sp.master.t_node && online t ~node then
              ignore (build_replica t sp ~node ~by_cpu:cpu)
          done
      | Off | Shared | Replicated (Some _) -> ());
      sp

(* --- PTE propagation ----------------------------------------------------- *)

let leaf_home t tbl ~vpage =
  match Int_tbl.find tbl.pages (leaf_page_key t vpage) with
  | home -> home_node t home
  | exception Not_found -> tbl.t_node

(* The price of storing a PTE into replica [r]'s leaf page: the matrix
   cell [Cost.node_reference_ns] returns, read here so it stays unboxed. *)
let pte_store_ns t ~cpu r ~vpage = t.topo.Topo.store_ns.(cpu).(leaf_home t r ~vpage)

(* A silent propagation: the new PTE value is stored into each replica's
   leaf page (remote store at matrix latency). *)
let propagate_update t space ~cpu ~vpage ~lpage pte =
  let key = pte_key ~cpu ~vpage in
  Int_tbl.iter
    (fun _node r ->
      ensure_path t r ~alloc_node:r.t_node ~vpage;
      Int_tbl.replace r.ptes key pte;
      let ns = pte_store_ns t ~cpu r ~vpage in
      t.c.c_pte_updates <- t.c.c_pte_updates + 1;
      t.c.c_ns.(shootdown_slot) <- t.c.c_ns.(shootdown_slot) +. ns;
      Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns)
    space.replicas

(* An invalidation-style shootdown: the stale replica PTE is overwritten
   (or cleared) and the remote node pays the IPI-style interrupt, so the
   cost is the remote store plus the configured shootdown service time. *)
let propagate_shootdown t space ~cpu ~vpage ~lpage pte_opt =
  let key = pte_key ~cpu ~vpage in
  Int_tbl.iter
    (fun node r ->
      if Int_tbl.mem r.ptes key then begin
        (match pte_opt with
        | Some pte -> Int_tbl.replace r.ptes key pte
        | None -> Int_tbl.remove r.ptes key);
        let ns = pte_store_ns t ~cpu r ~vpage +. t.config.Config.tlb_shootdown_ns in
        t.c.c_pte_shootdowns <- t.c.c_pte_shootdowns + 1;
        t.c.c_ns.(shootdown_slot) <- t.c.c_ns.(shootdown_slot) +. ns;
        Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns;
        if Hub.enabled t.obs then
          Hub.emit t.obs (Event.Pt_shootdown { cpu; vpage; lpage; node })
      end)
    space.replicas

let enter t ~pmap ~cpu ~vpage ~lpage ~frame ~prot =
  if not (pte_key_fits ~cpu ~vpage) then
    invalid_arg "Pt.enter: cpu or vpage out of range";
  let sp = ensure_space t ~pmap ~cpu in
  ensure_path t sp.master ~alloc_node:cpu ~vpage;
  let pte = { pte_lpage = lpage; pte_frame = frame; pte_prot = prot } in
  Int_tbl.replace sp.master.ptes (pte_key ~cpu ~vpage) pte;
  propagate_update t sp ~cpu ~vpage ~lpage pte

let remove t ~pmap ~cpu ~vpage ~lpage =
  match Int_tbl.find t.spaces pmap with
  | exception Not_found -> ()
  | sp ->
      Int_tbl.remove sp.master.ptes (pte_key ~cpu ~vpage);
      propagate_shootdown t sp ~cpu ~vpage ~lpage None

let update_pte t ~pmap ~cpu ~vpage ~lpage f =
  match Int_tbl.find t.spaces pmap with
  | exception Not_found -> ()
  | sp -> (
      let key = pte_key ~cpu ~vpage in
      match Int_tbl.find sp.master.ptes key with
      | exception Not_found -> ()
      | old ->
          let pte = f old in
          Int_tbl.replace sp.master.ptes key pte;
          propagate_shootdown t sp ~cpu ~vpage ~lpage (Some pte))

let update_phys t ~pmap ~cpu ~vpage ~lpage ~frame =
  update_pte t ~pmap ~cpu ~vpage ~lpage (fun old ->
      { old with pte_lpage = lpage; pte_frame = frame })

let update_prot t ~pmap ~cpu ~vpage ~lpage ~prot =
  update_pte t ~pmap ~cpu ~vpage ~lpage (fun old -> { old with pte_prot = prot })

(* --- the walk ------------------------------------------------------------ *)

let walk t ~pmap ~cpu ~vpage ~lpage =
  match t.mode with
  | Off -> ()
  | Shared | Replicated _ ->
      let sp = ensure_space t ~pmap ~cpu in
      let tbl =
        match t.mode with
        | Off | Shared -> sp.master
        | Replicated cap -> (
            if cpu = sp.master.t_node then sp.master
            else
              match Int_tbl.find sp.replicas cpu with
              | r -> r
              | exception Not_found -> (
                  (* On demand: the first local walk pays for mitosis, up
                     to the cap; past it, keep walking the master. *)
                  match cap with
                  | Some n when Int_tbl.length sp.replicas < n && online t ~node:cpu ->
                      build_replica t sp ~node:cpu ~by_cpu:cpu
                  | Some _ -> sp.master
                  | None -> sp.master))
      in
      (* Read down the radix path: one fetch per existing level, each at
         the matrix latency to wherever that table page lives (the cell
         [Cost.node_reference_ns] returns). The walk stops at the first
         absent page (a fault-path walk reads the levels that exist and
         finds no entry). Levels are read from the root, so [read] is
         also the next level's index. *)
      let fetch_row = t.topo.Topo.fetch_ns.(cpu) in
      let read = ref 0 in
      let ns = ref 0. in
      let absent = ref false in
      while (not !absent) && !read < t.levels do
        let level = !read in
        let key = page_key ~level ~prefix:(prefix_at t ~level vpage) in
        match Int_tbl.find tbl.pages key with
        | home ->
            ns := !ns +. fetch_row.(home_node t home);
            incr read
        | exception Not_found -> absent := true
      done;
      t.c.c_walks <- t.c.c_walks + 1;
      t.c.c_walk_levels <- t.c.c_walk_levels + !read;
      t.c.c_ns.(walk_slot) <- t.c.c_ns.(walk_slot) +. !ns;
      Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_walk ~lpage !ns;
      if Hub.enabled t.obs then
        Hub.emit t.obs (Event.Pt_walk { cpu; vpage; lpage; levels = !read; ns = !ns })

(* --- degradation and the daemon ------------------------------------------ *)

let sorted_pmaps t =
  List.sort Int.compare (Int_tbl.fold (fun pmap _ acc -> pmap :: acc) t.spaces [])

let drop_replica t space ~node =
  match Int_tbl.find space.replicas node with
  | exception Not_found -> ()
  | r ->
      Int_tbl.iter (fun _ home -> free_page t home) r.pages;
      Int_tbl.remove space.replicas node;
      t.c.c_replicas_dropped <- t.c.c_replicas_dropped + 1;
      if Hub.enabled t.obs then
        Hub.emit t.obs (Event.Pt_replica_drop { pmap = space.sp_pmap; node })

let node_offline t ~node =
  List.iter
    (fun pmap ->
      let sp = Int_tbl.find t.spaces pmap in
      drop_replica t sp ~node;
      (* Master pages living on the dying node move to the nearest online
         pool (or the shared level): the table must outlive the memory. *)
      let doomed =
        List.filter
          (fun (_, home) ->
            match home with
            | Local f -> f.Frame_table.node = node
            | Global _ -> false)
          (pages_by_level sp.master)
      in
      let target =
        Topo.nearest_cpu t.topo ~from:node ~ok:(fun n ->
            n <> node && online t ~node:n
            && Frame_table.local_in_use t.frames ~node:n
               < Frame_table.local_capacity t.frames ~node:n)
      in
      List.iter
        (fun (key, home) ->
          free_page t home;
          let prefix = key lsr 2 in
          let fresh =
            match target with
            | Some n -> alloc_page t ~node:n ~prefix
            | None ->
                t.c.c_global_pt_pages <- t.c.c_global_pt_pages + 1;
                Global prefix
          in
          Int_tbl.replace sp.master.pages key fresh;
          Cost_sink.charge t.sink ~cpu:node ~cat:Profile.Page_copy ~lpage:(-1)
            (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:node
               ~src:(home_place t home) ~dst:(home_place t fresh)))
        doomed)
    (sorted_pmaps t)

let daemon_sweep t ~by_cpu =
  match t.mode with
  | Off | Shared | Replicated (Some _) -> 0
  | Replicated None ->
      let built = ref 0 in
      List.iter
        (fun pmap ->
          let sp = Int_tbl.find t.spaces pmap in
          for node = 0 to Topo.cpu_nodes t.topo - 1 do
            if
              node <> sp.master.t_node && online t ~node
              && not (Int_tbl.mem sp.replicas node)
            then begin
              ignore (build_replica t sp ~node ~by_cpu);
              incr built
            end
          done)
        (sorted_pmaps t);
      !built

(* --- fault injection ----------------------------------------------------- *)

let corrupt_replica t ~lpage =
  let hit = ref None in
  List.iter
    (fun pmap ->
      if !hit = None then
        let sp = Int_tbl.find t.spaces pmap in
        let nodes =
          List.sort Int.compare (Int_tbl.fold (fun n _ acc -> n :: acc) sp.replicas [])
        in
        List.iter
          (fun node ->
            if !hit = None then
              let r = Int_tbl.find sp.replicas node in
              (* The lowest (cpu, vpage) mapping the page: PTE keys order
                 as their (cpu, vpage) pairs do. *)
              let victim =
                Int_tbl.fold
                  (fun key pte best ->
                    if pte.pte_lpage <> lpage then best
                    else
                      match best with
                      | Some (k, _) when k <= key -> best
                      | _ -> Some (key, pte))
                  r.ptes None
              in
              match victim with
              | None -> ()
              | Some (key, pte) ->
                  (* Retarget the replica PTE at the wrong logical page —
                     exactly the stale translation a missed shootdown
                     would leave behind. *)
                  Int_tbl.replace r.ptes key { pte with pte_lpage = pte.pte_lpage + 1 };
                  hit := Some (pmap, node))
          nodes)
    (sorted_pmaps t);
  !hit

(* --- introspection ------------------------------------------------------- *)

let pmaps t = sorted_pmaps t

let find_pte tbl ~cpu ~vpage =
  if pte_key_fits ~cpu ~vpage then Int_tbl.find_opt tbl.ptes (pte_key ~cpu ~vpage)
  else None

let master_pte t ~pmap ~cpu ~vpage =
  match Int_tbl.find_opt t.spaces pmap with
  | None -> None
  | Some sp -> find_pte sp.master ~cpu ~vpage

let replica_nodes t ~pmap =
  match Int_tbl.find_opt t.spaces pmap with
  | None -> []
  | Some sp ->
      List.sort Int.compare (Int_tbl.fold (fun n _ acc -> n :: acc) sp.replicas [])

let replica_pte t ~pmap ~node ~cpu ~vpage =
  match Int_tbl.find_opt t.spaces pmap with
  | None -> None
  | Some sp -> (
      match Int_tbl.find_opt sp.replicas node with
      | None -> None
      | Some r -> find_pte r ~cpu ~vpage)

let table_ptes tbl =
  Int_tbl.fold (fun key pte acc -> (unpack_pte_key key, pte) :: acc) tbl.ptes []

let master_ptes t ~pmap =
  match Int_tbl.find_opt t.spaces pmap with
  | None -> []
  | Some sp -> table_ptes sp.master

let replica_ptes t ~pmap ~node =
  match Int_tbl.find_opt t.spaces pmap with
  | None -> []
  | Some sp -> (
      match Int_tbl.find_opt sp.replicas node with
      | None -> []
      | Some r -> table_ptes r)

let table_frames t =
  let acc = ref [] in
  let add_table tbl =
    Int_tbl.iter
      (fun _ home ->
        match home with
        | Local f -> acc := (f.Frame_table.node, f) :: !acc
        | Global _ -> ())
      tbl.pages
  in
  Int_tbl.iter
    (fun _ sp ->
      add_table sp.master;
      Int_tbl.iter (fun _ r -> add_table r) sp.replicas)
    t.spaces;
  !acc

type stats = {
  walks : int;
  walk_levels : int;
  walk_ns : float;
  pte_updates : int;
  pte_shootdowns : int;
  shootdown_ns : float;
  replicas_built : int;
  replicas_dropped : int;
  pt_frames : int array;
  global_pt_pages : int;
}

let stats t =
  {
    walks = t.c.c_walks;
    walk_levels = t.c.c_walk_levels;
    walk_ns = t.c.c_ns.(walk_slot);
    pte_updates = t.c.c_pte_updates;
    pte_shootdowns = t.c.c_pte_shootdowns;
    shootdown_ns = t.c.c_ns.(shootdown_slot);
    replicas_built = t.c.c_replicas_built;
    replicas_dropped = t.c.c_replicas_dropped;
    pt_frames =
      Array.init (Topo.cpu_nodes t.topo) (fun node ->
          Frame_table.pt_in_use t.frames ~node);
    global_pt_pages = t.c.c_global_pt_pages;
  }
