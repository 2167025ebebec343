type _ Effect.t += Sim_op : Op.t -> int Effect.t

let perform op = Effect.perform (Sim_op op)

let read ?(count = 1) vpage =
  if count > 0 then ignore (perform (Op.Read { vpage; count }))

let read_value vpage = perform (Op.Read { vpage; count = 1 })

let write ?(count = 1) ?(value = 0) vpage =
  if count > 0 then ignore (perform (Op.Write { vpage; count; value }))

let span ?(value = 0) access ~base_vpage ~words_per_page ~lo ~n ~stride =
  if stride <= 0 then invalid_arg "Api.span: stride must be positive";
  if n > 0 then begin
    let first = lo / words_per_page and last = (lo + ((n - 1) * stride)) / words_per_page in
    if first = last then begin
      let vpage = base_vpage + first in
      match access with
      | Numa_machine.Access.Load -> ignore (perform (Op.Read { vpage; count = n }))
      | Store -> ignore (perform (Op.Write { vpage; count = n; value }))
    end
    else
      ignore
        (perform (Op.Span { access; base_vpage; words_per_page; lo; n; stride; value }))
  end

let compute ns = if ns > 0. then ignore (perform (Op.Compute { ns }))

let lock l = ignore (perform (Op.Lock_acquire l))

let unlock l = ignore (perform (Op.Lock_release l))

let with_lock l f =
  lock l;
  match f () with
  | v ->
      unlock l;
      v
  | exception e ->
      unlock l;
      raise e

let barrier b = ignore (perform (Op.Barrier_wait b))

let syscall ?(touch_stack = false) ~service_ns () =
  ignore (perform (Op.Syscall { service_ns; touch_stack }))

let migrate ~cpu = ignore (perform (Op.Migrate { cpu }))

let sleep_until ~ns = ignore (perform (Op.Sleep_until { until_ns = ns }))

exception Deadline_exceeded of int

let with_deadline ~until_ns f =
  let id = perform (Op.Deadline_push { until_ns }) in
  (* The pop lives inside the matched expression: a deadline that fires
     during [f] (or in the race window just before the pop is processed)
     lands in the exception branch either way, so the timer can never
     leak into the caller's scope. *)
  match
    let v = f () in
    ignore (perform Op.Deadline_pop);
    v
  with
  | v -> Some v
  | exception Deadline_exceeded id' when id' = id -> None
