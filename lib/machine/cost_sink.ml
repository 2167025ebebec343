module Profile = Numa_obs.Profile

(* Each categorised charge awaits drain as two parallel entries in its
   CPU's queue: a tag packing the category, the context and [lpage + 1],
   and the amount in an unboxed float array. The context is resolved at
   charge time (the daemon tick or a fault application may be over by the
   time the charged CPU next drains); the nanoseconds are profiled only at
   drain time, when the engine actually puts them on a clock — charges
   that are never drained (e.g. a shootdown against a CPU that never
   touches memory again) never reach the profiler, keeping its totals in
   exact agreement with the CPU clocks. *)
let tag ~cat ~ctx ~lpage =
  ((lpage + 1) lsl 6) lor (Profile.ctx_idx ctx lsl 4) lor Profile.kernel_idx cat

type t = {
  pending : float array;
  cumulative : float array;
  tags : int array array;  (* per cpu, oldest first *)
  amounts : float array array;  (* per cpu, beside [tags] *)
  queued : int array;  (* per cpu: live entries in [tags] / [amounts] *)
  mutable profile : Profile.t option;
}

let create ~n_cpus =
  if n_cpus <= 0 then invalid_arg "Cost_sink.create: n_cpus must be positive";
  {
    pending = Array.make n_cpus 0.;
    cumulative = Array.make n_cpus 0.;
    tags = Array.make n_cpus [||];
    amounts = Array.make n_cpus [||];
    queued = Array.make n_cpus 0;
    profile = None;
  }

let set_profile t profile = t.profile <- profile
let profile t = t.profile

(* Queues start empty and double when full, so an unprofiled sink never
   allocates one and a warmed-up profiled one stops allocating. *)
let grow t ~cpu =
  let n = t.queued.(cpu) in
  let cap = max 16 (2 * n) in
  let tags = Array.make cap 0 and amounts = Array.make cap 0. in
  Array.blit t.tags.(cpu) 0 tags 0 n;
  Array.blit t.amounts.(cpu) 0 amounts 0 n;
  t.tags.(cpu) <- tags;
  t.amounts.(cpu) <- amounts

let charge t ~cpu ~cat ~lpage ns =
  if ns < 0. then invalid_arg "Cost_sink.charge: negative charge";
  t.pending.(cpu) <- t.pending.(cpu) +. ns;
  t.cumulative.(cpu) <- t.cumulative.(cpu) +. ns;
  match t.profile with
  | None -> ()
  | Some p ->
      let n = t.queued.(cpu) in
      if n = Array.length t.tags.(cpu) then grow t ~cpu;
      t.tags.(cpu).(n) <- tag ~cat ~ctx:(Profile.context p) ~lpage;
      t.amounts.(cpu).(n) <- ns;
      t.queued.(cpu) <- n + 1

(* Newest first, the order the queue has always been profiled in. *)
let drain t ~cpu =
  let v = t.pending.(cpu) in
  t.pending.(cpu) <- 0.;
  (match t.profile with
  | None -> ()
  | Some p ->
      let tags = t.tags.(cpu) and amounts = t.amounts.(cpu) in
      for i = t.queued.(cpu) - 1 downto 0 do
        let tag = tags.(i) in
        Profile.charge_kernel p ~cpu
          ~ctx:(Profile.context_of_idx ((tag lsr 4) land 3))
          ~cat:(Profile.kernel_cat_of_idx (tag land 15))
          ~lpage:((tag lsr 6) - 1) amounts.(i)
      done;
      t.queued.(cpu) <- 0);
  v

let idle t ~cpu = t.pending.(cpu) = 0. && t.queued.(cpu) = 0

let pending t ~cpu = t.pending.(cpu)

let total_charged t ~cpu = t.cumulative.(cpu)

let grand_total t = Array.fold_left ( +. ) 0. t.cumulative
