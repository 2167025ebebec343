type phys = Frame of Frame_table.local_frame | Global_frame of int

type entry = {
  pmap : int;
  cpu : int;
  vpage : int;
  lpage : int;
  mutable prot : Prot.t;
  phys : phys;
  node : int;
  where : Location.relative;
}

type t = {
  n_cpus : int;
  topo : Topo.t;  (** homes the shared level's pages, for [entry.node] *)
  forward : entry Int_tbl.t;  (** [key pmap cpu vpage] -> mapping *)
  mutable reverse : entry list array;  (** lpage -> its mappings, newest first *)
  tlbs : entry Tlb.t array;  (** per-CPU software translation caches *)
  obs : Numa_obs.Hub.t;
  mutable pt : Pt.t option;  (** materialised page tables, when attached *)
}

(* The forward map's key packs a mapping's coordinates into one int:
   vpage in the low 40 bits, cpu in the next 8, pmap above. A triple that
   does not fit packs to -1, which no mapping holds: [enter] rejects it
   and lookups miss. *)
let key ~pmap ~cpu ~vpage =
  if vpage lsr 40 = 0 && cpu lsr 8 = 0 && pmap lsr 14 = 0 then
    (((pmap lsl 8) lor cpu) lsl 40) lor vpage
  else -1

let create ?obs (config : Config.t) =
  {
    n_cpus = config.n_cpus;
    topo = Config.topology config;
    forward = Int_tbl.create 1024;
    reverse = [||];
    tlbs = Array.init config.n_cpus (fun _ -> Tlb.create ());
    obs = (match obs with Some h -> h | None -> Numa_obs.Hub.create ());
    pt = None;
  }

let phys_location ~cpu = function
  | Global_frame _ -> Location.In_global
  | Frame f -> if f.Frame_table.node = cpu then Location.Local_here else Location.Remote_local

let phys_node ~topo = function
  | Frame f -> f.Frame_table.node
  | Global_frame lpage -> Topo.global_home topo ~lpage

let attach_pt t pt = t.pt <- Some pt
let pt t = t.pt

let pte_frame = function Frame f -> Some f | Global_frame _ -> None

(* The reverse index grows to the highest logical page mapped so far, so a
   machine pays only for the pages its run touches. *)
let link_reverse t e =
  let n = Array.length t.reverse in
  if e.lpage >= n then begin
    let grown = Array.make (max (e.lpage + 1) (2 * n)) [] in
    Array.blit t.reverse 0 grown 0 n;
    t.reverse <- grown
  end;
  t.reverse.(e.lpage) <- e :: t.reverse.(e.lpage)

let rec without e = function
  | [] -> []
  | x :: rest -> if x == e then rest else x :: without e rest

let unlink_reverse t e = t.reverse.(e.lpage) <- without e t.reverse.(e.lpage)

(* Every mapping drop funnels through here, so this is the one precise
   shootdown point for the software TLBs: the protocol actions (invalidate,
   ownership move, pin, pageout) all reach mappings via the reverse maps
   and remove them entry by entry. *)
let remove_entry t e =
  Int_tbl.remove t.forward (key ~pmap:e.pmap ~cpu:e.cpu ~vpage:e.vpage);
  unlink_reverse t e;
  (match t.pt with
  | Some pt -> Pt.remove pt ~pmap:e.pmap ~cpu:e.cpu ~vpage:e.vpage ~lpage:e.lpage
  | None -> ());
  if
    Tlb.invalidate t.tlbs.(e.cpu) ~pmap:e.pmap ~vpage:e.vpage
    && Numa_obs.Hub.enabled t.obs
  then
    Numa_obs.Hub.emit t.obs
      (Numa_obs.Event.Tlb_shootdown { cpu = e.cpu; vpage = e.vpage; lpage = e.lpage })

let enter t ~pmap ~cpu ~vpage ~lpage ~prot ~phys =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Mmu.enter: bad cpu";
  if lpage < 0 then invalid_arg "Mmu.enter: negative lpage";
  let key = key ~pmap ~cpu ~vpage in
  if key < 0 then invalid_arg "Mmu.enter: pmap, cpu or vpage out of range";
  (match Int_tbl.find t.forward key with
  | old -> remove_entry t old
  | exception Not_found -> ());
  (* [phys] is fixed for the mapping's life, so its node and relative
     location are computed once here and read by every TLB hit. *)
  let e =
    {
      pmap;
      cpu;
      vpage;
      lpage;
      prot;
      phys;
      node = phys_node ~topo:t.topo phys;
      where = phys_location ~cpu phys;
    }
  in
  Int_tbl.replace t.forward key e;
  link_reverse t e;
  match t.pt with
  | Some pt -> Pt.enter pt ~pmap ~cpu ~vpage ~lpage ~frame:(pte_frame phys) ~prot
  | None -> ()

let lookup t ~pmap ~cpu ~vpage = Int_tbl.find_opt t.forward (key ~pmap ~cpu ~vpage)

(* The fast path: consult the CPU's software TLB first, fill it from the
   forward table on a miss. Entries are shared records, so a protection
   clamp done in place is visible on later hits without a shootdown;
   everything else about an entry is immutable, and retargeting a page
   means a new entry, so only [remove_entry] needs to shoot entries
   down. *)
let translate t ~pmap ~cpu ~vpage =
  let tlb = t.tlbs.(cpu) in
  match Tlb.lookup tlb ~pmap ~vpage with
  | Some _ as hit -> hit
  | None ->
      let found = lookup t ~pmap ~cpu ~vpage in
      (* A miss is where the hardware would walk: charge the multi-level
         table walk when tables are materialised. A walk that finds no
         PTE (the fault path) still reads the levels that exist. *)
      (match t.pt with
      | Some pt ->
          let lpage = match found with Some e -> e.lpage | None -> -1 in
          Pt.walk pt ~pmap ~cpu ~vpage ~lpage
      | None -> ());
      (match found with Some e -> Tlb.insert tlb ~pmap ~vpage e | None -> ());
      found

let sum_over_tlbs t f = Array.fold_left (fun acc tlb -> acc + f tlb) 0 t.tlbs

let tlb_hits t = sum_over_tlbs t Tlb.hits
let tlb_misses t = sum_over_tlbs t Tlb.misses
let tlb_shootdowns t = sum_over_tlbs t Tlb.shootdowns

let tlb_stats t ~cpu =
  let tlb = t.tlbs.(cpu) in
  (Tlb.hits tlb, Tlb.misses tlb, Tlb.shootdowns tlb)

let set_prot t e prot =
  e.prot <- prot;
  match t.pt with
  | Some pt ->
      Pt.update_prot pt ~pmap:e.pmap ~cpu:e.cpu ~vpage:e.vpage ~lpage:e.lpage ~prot
  | None -> ()

let remove t ~pmap ~cpu ~vpage =
  match lookup t ~pmap ~cpu ~vpage with
  | None -> ()
  | Some e -> remove_entry t e

let entries_of_lpage t ~lpage =
  if lpage >= 0 && lpage < Array.length t.reverse then t.reverse.(lpage) else []

let entries_of_pmap t ~pmap =
  Int_tbl.fold (fun _ e acc -> if e.pmap = pmap then e :: acc else acc) t.forward []

let iter_range t ~pmap ~vpage ~n f =
  for v = vpage to vpage + n - 1 do
    for cpu = 0 to t.n_cpus - 1 do
      match lookup t ~pmap ~cpu ~vpage:v with
      | Some e -> f e
      | None -> ()
    done
  done

let remove_range t ~pmap ~vpage ~n =
  let doomed = ref [] in
  iter_range t ~pmap ~vpage ~n (fun e -> doomed := e :: !doomed);
  List.iter (remove_entry t) !doomed

let n_mappings t = Int_tbl.length t.forward

