open Numa_system
module Api = Numa_sim.Api
module Region_attr = Numa_vm.Region_attr

module Cost = struct
  let loop_ns = 1_000.
  let int_mul_ns = 3_500.
  let trial_div_ns = 38_000.
  let prime_div_ns = 10_000.
  let flop_ns = 1_000.
  let call_ns = 2_000.
end

type arr = { region : System.region; words : int; words_per_page : int }

let alloc_arr sys ?pragma ?(kind = Region_attr.Data) ~name ~sharing ~words () =
  if words <= 0 then invalid_arg "Workload.alloc_arr: words must be positive";
  let words_per_page = (System.config sys).Numa_machine.Config.page_size_words in
  let pages = (words + words_per_page - 1) / words_per_page in
  let region = System.alloc_region sys ?pragma ~name ~kind ~sharing ~pages () in
  { region; words; words_per_page }

let vpage_of a i =
  if i < 0 || i >= a.words then invalid_arg "Workload.vpage_of: index out of range";
  a.region.System.base_vpage + (i / a.words_per_page)

let n_pages a = a.region.System.pages

let read_word a i = Api.read (vpage_of a i)
let write_word a ?value i = Api.write ?value (vpage_of a i)

(* Each walk is one {!Api.span}: one engine operation, however many
   pages it crosses. *)
let walk ?value a access ~lo ~n ~stride =
  Api.span ?value access ~base_vpage:a.region.System.base_vpage
    ~words_per_page:a.words_per_page ~lo ~n ~stride

let check_range a ~lo ~n =
  if n < 0 || lo < 0 || lo + n > a.words then invalid_arg "Workload: range out of bounds"

let read_range a ~lo ~n =
  check_range a ~lo ~n;
  walk a Numa_machine.Access.Load ~lo ~n ~stride:1

let write_range ?value a ~lo ~n =
  check_range a ~lo ~n;
  walk ?value a Numa_machine.Access.Store ~lo ~n ~stride:1

let check_stride a ~lo ~n ~stride =
  if stride <= 0 then invalid_arg "Workload: stride must be positive";
  if n < 0 then invalid_arg "Workload: negative count";
  if n > 0 && (lo < 0 || lo + ((n - 1) * stride) >= a.words) then
    invalid_arg "Workload: stride range out of bounds"

let read_stride a ~lo ~n ~stride =
  check_stride a ~lo ~n ~stride;
  walk a Numa_machine.Access.Load ~lo ~n ~stride

let write_stride ?value a ~lo ~n ~stride =
  check_stride a ~lo ~n ~stride;
  walk ?value a Numa_machine.Access.Store ~lo ~n ~stride

let linkage ~stack_vpage ~refs =
  if refs > 0 then begin
    let stores = refs / 2 in
    let fetches = refs - stores in
    if stores > 0 then Api.write ~count:stores stack_vpage;
    Api.read ~count:fetches stack_vpage
  end

type workpile = {
  lock : Numa_sim.Sync.lock;
  counter_vpage : int;
  total : int;
  chunk : int;
  mutable next : int;
}

let make_workpile sys ~name ~total ~chunk =
  if total < 0 || chunk <= 0 then invalid_arg "Workload.make_workpile: bad sizes";
  let counter =
    System.alloc_region sys
      ~name:(name ^ ".counter")
      ~kind:Region_attr.Sync ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
  in
  {
    lock = System.make_lock sys ~name:(name ^ ".lock");
    counter_vpage = counter.System.base_vpage;
    total;
    chunk;
    next = 0;
  }

let workpile_take wp =
  Api.with_lock wp.lock (fun () ->
      let lo = Api.read_value wp.counter_vpage in
      ignore lo;
      if wp.next >= wp.total then None
      else begin
        let lo = wp.next in
        let hi = min (lo + wp.chunk) wp.total - 1 in
        wp.next <- hi + 1;
        Api.write ~value:wp.next wp.counter_vpage;
        Some (lo, hi)
      end)

let static_share ~total ~nthreads ~tid =
  if nthreads <= 0 || tid < 0 || tid >= nthreads then
    invalid_arg "Workload.static_share: bad thread index";
  let base = total / nthreads and extra = total mod nthreads in
  let lo = (tid * base) + min tid extra in
  let len = base + if tid < extra then 1 else 0 in
  (lo, lo + len)
