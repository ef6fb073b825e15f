type status =
  | Queued
  | Batched
  | Done of { output : float array; degraded : bool; latency : float }
  | Timeout
  | Shed

let status_name = function
  | Queued -> "Queued"
  | Batched -> "Batched"
  | Done _ -> "Done"
  | Timeout -> "Timeout"
  | Shed -> "Shed"

type pending = { id : int; features : float array; arrival : float; deadline : float }

type t = {
  replica : Replica.t;
  ctx : Replica.ctx;
  hooks : pending Replica.hooks;
  queue : pending Request_queue.t;
  statuses : (int, status) Hashtbl.t;
  breaker : Breaker.t;
  plans : (Fault.t * int ref) list;  (* the one plan, at the forward count *)
  forwards : int ref;
  mutable next_id : int;
}

let create ?(queue_capacity = 64) ?(failure_threshold = 1) ?(cooldown = 5e-3)
    ?(max_retries = 1) ?(backoff = 1e-4) ?(watchdog_slack = 8.0)
    ?(machine = Machine.xeon_e5_2699v3) ?(faults = Fault.none) ?(seed = 42)
    ?opts ~config ~input_buf ~output_buf build =
  (* Both executors compile against one cancellation token, which is
     what lets the pump cancel a batch mid-run. An explicitly provided
     token (shared with a registry, say) is kept. *)
  let opts =
    let base =
      match opts with
      | Some o -> o
      | None ->
          Executor.Run_opts.with_domains config.Config.num_domains
            Executor.Run_opts.default
    in
    match base.Executor.Run_opts.token with
    | Some _ -> base
    | None -> Executor.Run_opts.with_token (Ir_compile.token ()) base
  in
  let ctx =
    Replica.ctx ~caller:"Server.create" ~max_retries ~backoff ~watchdog_slack
      ~token:opts.Executor.Run_opts.token
  in
  (* Poisoned buffers stay f32 under the int8 preset so NaN injection
     survives encoding. *)
  let replica =
    Replica.build ~machine ~opts ~seed ~keep:(Fault.poison_output_bufs faults)
      ~config ~input_buf ~output_buf build
  in
  (* Arm injected worker-domain deaths on the pool the fast executor
     actually runs on; a single-domain run has no pool and the kills are
     inert (the fault plan's one-shot flags simply never fire). *)
  (match Executor.pool replica.Replica.fast with
  | Some p ->
      List.iter
        (fun (worker, at_dispatch) ->
          Domain_pool.arm_kill p ~worker ~at_dispatch)
        (Fault.domain_kills faults)
  | None -> ());
  let statuses = Hashtbl.create 256 in
  let forwards = ref 0 in
  {
    replica;
    ctx;
    hooks =
      { Replica.features = (fun p -> p.features);
        arrival = (fun p -> p.arrival);
        deadline = (fun p -> p.deadline);
        answer =
          (fun p a ->
            Hashtbl.replace statuses p.id
              (match a with
              | Replica.Answered { output; degraded; latency; _ } ->
                  Done { output; degraded; latency }
              | Replica.Timed_out -> Timeout));
        on_event = ignore;
        on_success = ignore;
        on_failure = (fun _ -> `Continue) };
    queue = Request_queue.create ~capacity:queue_capacity;
    statuses;
    breaker = Breaker.create ~threshold:failure_threshold ~cooldown ();
    plans = [ (faults, forwards) ];
    forwards;
    next_id = 0;
  }

let batch_size t = t.replica.Replica.batch
let item_numel t = t.replica.Replica.item_numel
let now t = t.ctx.Replica.clock

let advance t dt =
  if dt < 0.0 then invalid_arg (Printf.sprintf "Server.advance: dt %g < 0" dt);
  t.ctx.Replica.clock <- t.ctx.Replica.clock +. dt

let advance_to t time = if time > now t then t.ctx.Replica.clock <- time

let submit t ?(deadline = Float.infinity) features =
  if Array.length features <> item_numel t then
    invalid_arg
      (Printf.sprintf "Server.submit: %d features, expected %d"
         (Array.length features) (item_numel t));
  let id = t.next_id in
  t.next_id <- id + 1;
  let metrics = t.ctx.Replica.metrics in
  Serve_metrics.record_submitted metrics;
  let r = { id; features; arrival = now t; deadline } in
  if Request_queue.offer t.queue r then Hashtbl.replace t.statuses id Queued
  else begin
    Hashtbl.replace t.statuses id Shed;
    Serve_metrics.record_shed metrics
  end;
  id

let queue_length t = Request_queue.length t.queue

let oldest_wait t =
  Option.map (fun r -> now t -. r.arrival) (Request_queue.peek t.queue)

let pump t =
  let rec take acc k =
    if k = 0 then List.rev acc
    else
      match Request_queue.pop t.queue with
      | None -> List.rev acc
      | Some r ->
          if r.deadline < now t then begin
            Hashtbl.replace t.statuses r.id Timeout;
            Serve_metrics.record_timeout t.ctx.Replica.metrics;
            take acc k
          end
          else begin
            Hashtbl.replace t.statuses r.id Batched;
            take (r :: acc) (k - 1)
          end
  in
  match take [] (batch_size t) with
  | [] -> false
  | reqs ->
      Serve_metrics.record_batch t.ctx.Replica.metrics;
      (* A single-version server never asks for a re-run. *)
      ignore
        (Replica.run_batch t.ctx t.hooks t.replica ~breaker:t.breaker ~plans:t.plans
           reqs);
      true

let drain t =
  while not (Request_queue.is_empty t.queue) do
    ignore (pump t)
  done

let status t id =
  match Hashtbl.find_opt t.statuses id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Server.status: unknown request id %d" id)

let unanswered t =
  Hashtbl.fold
    (fun _ s acc -> match s with Queued | Batched -> acc + 1 | _ -> acc)
    t.statuses 0

let forwards t = !(t.forwards)
let watchdog_slack t = t.ctx.Replica.watchdog_slack
let cancellation_token t = t.ctx.Replica.token
let metrics t = t.ctx.Replica.metrics
let breaker t = t.breaker
let fast_executor t = t.replica.Replica.fast
let reference_executor t = t.replica.Replica.reference
let is_quantized t = t.replica.Replica.quantized
let section_costs t = t.replica.Replica.fast_costs
