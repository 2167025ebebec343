type t =
  | Read of { vpage : int; count : int }
  | Write of { vpage : int; count : int; value : int }
  | Span of {
      access : Numa_machine.Access.t;
      base_vpage : int;
      words_per_page : int;
      lo : int;
      n : int;
      stride : int;
      value : int;
    }
  | Compute of { ns : float }
  | Lock_acquire of Sync.lock
  | Lock_release of Sync.lock
  | Barrier_wait of Sync.barrier
  | Syscall of { service_ns : float; touch_stack : bool }
  | Migrate of { cpu : int }
  | Sleep_until of { until_ns : float }
  | Deadline_push of { until_ns : float }
  | Deadline_pop

let batch_len ~words_per_page ~stride ~i ~left =
  let page_end = ((i / words_per_page) + 1) * words_per_page in
  let on_page = ((page_end - 1 - i) / stride) + 1 in
  if on_page < left then on_page else left

let stride_batches ~words_per_page ~lo ~n ~stride f =
  let rec go i left =
    if left > 0 then begin
      let count = batch_len ~words_per_page ~stride ~i ~left in
      f (i / words_per_page) count;
      go (i + (count * stride)) (left - count)
    end
  in
  go lo n

let pp ppf = function
  | Read { vpage; count } -> Format.fprintf ppf "read[%d x%d]" vpage count
  | Write { vpage; count; value } -> Format.fprintf ppf "write[%d x%d <- %d]" vpage count value
  | Span { access; base_vpage; words_per_page; lo; n; stride; value } ->
      Format.fprintf ppf "span[%a %d+%d x%d stride %d, %d/page <- %d]" Numa_machine.Access.pp
        access base_vpage lo n stride words_per_page value
  | Compute { ns } -> Format.fprintf ppf "compute[%.0fns]" ns
  | Lock_acquire l -> Format.fprintf ppf "lock[%d]" l.Sync.lock_id
  | Lock_release l -> Format.fprintf ppf "unlock[%d]" l.Sync.lock_id
  | Barrier_wait b -> Format.fprintf ppf "barrier[%d]" b.Sync.barrier_id
  | Syscall { service_ns; touch_stack } ->
      Format.fprintf ppf "syscall[%.0fns%s]" service_ns (if touch_stack then ",stack" else "")
  | Migrate { cpu } -> Format.fprintf ppf "migrate[cpu%d]" cpu
  | Sleep_until { until_ns } -> Format.fprintf ppf "sleep[until %.0fns]" until_ns
  | Deadline_push { until_ns } -> Format.fprintf ppf "deadline[until %.0fns]" until_ns
  | Deadline_pop -> Format.fprintf ppf "deadline[pop]"
