type t = {
  fast : Executor.t;
  reference : Executor.t;
  input_buf : string;
  output_buf : string;
  quantized : bool;
  fast_costs : (string * float) list;
  ref_costs : (string * float) list;
  batch : int;
  item_numel : int;
  param_bytes : float;
}

let section_costs_of machine (prog : Program.t) =
  let est =
    Cost_model.estimate_sections machine
      ~buf_bytes:(Cost_model.buf_bytes_of prog)
      ~width_of:(Program.width_of prog) prog.Program.forward
  in
  List.map
    (fun (s : Cost_model.section_estimate) -> (s.Cost_model.label, s.Cost_model.seconds))
    est.Cost_model.sections

(* Degraded answers must match the fast path's parameters exactly even
   if a future pass reorders initialization draws, so the pairing is
   enforced by copying rather than assumed from the shared seed. *)
let sync_params ~from_exec ~to_exec =
  List.iter
    (fun (p : Program.param) ->
      Tensor.blit
        ~src:(Executor.lookup from_exec p.Program.value_buf)
        ~dst:(Executor.lookup to_exec p.Program.value_buf))
    (Executor.program from_exec).Program.params

let build ~machine ~opts ~seed ~keep ~config ~input_buf ~output_buf net =
  let fast, reference = Pipeline.compile_pair ~seed ~opts config net in
  let fast_prog = Executor.program fast in
  sync_params ~from_exec:fast ~to_exec:reference;
  let input = Executor.lookup fast input_buf in
  ignore (Executor.lookup fast output_buf);
  ignore (Executor.lookup reference input_buf);
  ignore (Executor.lookup reference output_buf);
  List.iter (fun buf -> ignore (Executor.lookup fast buf)) keep;
  let batch = fast_prog.Program.batch_size in
  let param_bytes =
    List.fold_left
      (fun acc (p : Program.param) ->
        acc +. (4.0 *. float_of_int (Tensor.numel (Executor.lookup fast p.Program.value_buf))))
      0.0 fast_prog.Program.params
  in
  (* The int8 preset post-training-quantizes the fast program here:
     calibrate dynamic ranges on synthetic uniform-[0,1) batches (the
     Load_gen feature distribution), repack, re-prepare. The reference
     executor stays full f32 — it is the breaker's degraded path and the
     numeric ground truth. Buffers a fault plan poisons can be kept f32
     so NaN injection survives encoding. *)
  let fast =
    match config.Config.precision with
    | `I8 ->
        let rng = Rng.create (seed + 0x517) in
        let feed _ = Tensor.fill_uniform rng input ~lo:0.0 ~hi:1.0 in
        let n =
          Quantize.quantize ~exec:fast ~feed
            ~keep:(input_buf :: output_buf :: keep)
            ~preset:`I8 fast_prog
        in
        if n > 0 then Executor.prepare ~opts:(Executor.run_opts fast) fast_prog
        else fast
    | `F32 | `F16 -> fast
  in
  let pool = fast_prog.Program.buffers in
  { fast; reference; input_buf; output_buf;
    quantized =
      List.exists (fun b -> not (Buffer_pool.is_f32 pool b)) (Buffer_pool.names pool);
    fast_costs = section_costs_of machine fast_prog;
    ref_costs = section_costs_of machine (Executor.program reference);
    batch; item_numel = Tensor.numel input / batch; param_bytes }

(* ------------------------------------------------------------------ *)
(* The batch core                                                      *)
(* ------------------------------------------------------------------ *)

type ctx = {
  mutable clock : float;
  metrics : Serve_metrics.t;
  token : Ir_compile.token option;
  max_retries : int;
  backoff : float;
  watchdog_slack : float;
}

let ctx ~caller ~max_retries ~backoff ~watchdog_slack ~token =
  if max_retries < 0 then
    invalid_arg (Printf.sprintf "%s: max_retries %d < 0" caller max_retries);
  if backoff < 0.0 then invalid_arg (Printf.sprintf "%s: backoff %g < 0" caller backoff);
  if watchdog_slack < 1.0 then
    invalid_arg (Printf.sprintf "%s: watchdog_slack %g < 1" caller watchdog_slack);
  { clock = 0.0; metrics = Serve_metrics.create (); token; max_retries; backoff;
    watchdog_slack }

type answer =
  | Answered of { output : float array; degraded : bool; quantized : bool; latency : float }
  | Timed_out

type event =
  | Respawned of { workers : int; reason : string }
  | Cancelled of { requests : int; reason : string }

type 'r hooks = {
  features : 'r -> float array;
  arrival : 'r -> float;
  deadline : 'r -> float;
  answer : 'r -> answer -> unit;
  on_event : event -> unit;
  on_success : unit -> unit;
  on_failure : string -> [ `Continue | `Rerun ];
}

let reset_token ctx =
  match ctx.token with Some tok -> Ir_compile.reset_token tok | None -> ()

let cancel_run ctx ~reason =
  match ctx.token with Some tok -> Ir_compile.cancel tok ~reason | None -> ()

(* A section's modeled cost inflated by every plan's slow-section
   factors, applied in plan order. *)
let slowed plans ~label s =
  List.fold_left (fun acc (plan, _) -> acc *. Fault.section_factor plan ~label) s plans

let simulated_cost plans costs =
  List.fold_left (fun acc (label, s) -> acc +. slowed plans ~label s) 0.0 costs

let fill_inputs hooks r exec reqs =
  let input = Executor.lookup exec r.input_buf in
  Tensor.fill input 0.0;
  List.iteri
    (fun i q ->
      let row = Tensor.sub_left input i in
      Array.iteri (fun j v -> Tensor.set1 row j v) (hooks.features q))
    reqs

let output_finite r ~n_live =
  let out = Executor.lookup r.fast r.output_buf in
  let ok = ref true in
  for i = 0 to n_live - 1 do
    let row = Tensor.sub_left out i in
    for j = 0 to Tensor.numel row - 1 do
      if not (Float.is_finite (Tensor.get1 row j)) then ok := false
    done
  done;
  !ok

(* One fast forward, section by section. Each plan is consulted at its
   own forward index (a fleet plan counts fleet-wide forwards, a
   version's plan that version's), so a chaos scenario can target a
   freshly swapped version. Cancellation decisions happen at section
   boundaries — the watchdog when a section overran its cost-model
   estimate by more than [watchdog_slack], the runtime deadline once
   every request in the batch is already past due. Injected
   worker-domain deaths surface here as [Domain_pool.Worker_died]; the
   pool has already respawned the workers, so the whole forward re-runs
   (bit-identical: every section recomputes from the same parameters). *)
let try_fast ctx hooks r ~plans ~max_deadline ~n_live =
  let at =
    List.map
      (fun (plan, counter) ->
        let ix = !counter in
        incr counter;
        (plan, ix))
      plans
  in
  let costs = Array.of_list r.fast_costs in
  let predicted = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.fast_costs in
  let t_start = ctx.clock in
  let watchdog_hit = ref false in
  let on_section i label =
    let base = snd costs.(i) in
    let dt =
      List.fold_left
        (fun acc (plan, ix) -> acc +. Fault.hang_seconds plan ~forward:ix ~label)
        (slowed at ~label base) at
    in
    ctx.clock <- ctx.clock +. dt;
    if dt > base *. ctx.watchdog_slack then begin
      watchdog_hit := true;
      Serve_metrics.record_watchdog ctx.metrics;
      cancel_run ctx
        ~reason:
          (Printf.sprintf "watchdog: section %s ran %.3gms against a %.3gms \
                           estimate (slack %gx)"
             label (dt *. 1e3) (base *. 1e3) ctx.watchdog_slack)
    end
    else if ctx.clock > max_deadline then
      cancel_run ctx ~reason:"every deadline in the batch expired mid-run"
  in
  let record_slack () =
    Serve_metrics.record_slack ctx.metrics ~predicted ~actual:(ctx.clock -. t_start)
  in
  reset_token ctx;
  let rec go attempts =
    match Executor.forward_sections ~on_section r.fast with
    | () ->
        record_slack ();
        List.iter
          (fun (plan, ix) ->
            List.iter
              (fun buf ->
                (* Store-level fill survives packed targets (f16 encodes
                   NaN as a NaN bit pattern); int8 poison bufs are kept
                   f32 by the keep list. *)
                Tensor.store_fill
                  (Buffer_pool.store (Executor.program r.fast).Program.buffers buf)
                  Float.nan)
              (Fault.poison_outputs_at plan ~forward:ix))
          at;
        if output_finite r ~n_live then `Ok
        else `Error (Printf.sprintf "non-finite output in %s" r.output_buf)
    | exception Ir_compile.Cancelled reason ->
        record_slack ();
        `Cancelled (reason, !watchdog_hit)
    | exception Domain_pool.Worker_died workers ->
        List.iter
          (fun w ->
            Serve_metrics.record_respawn ctx.metrics;
            List.iter (fun (plan, ix) -> Fault.note_domain_kill plan ~worker:w ~at:ix) at)
          workers;
        hooks.on_event
          (Respawned
             { workers = List.length workers;
               reason = "worker domain(s) died mid-forward" });
        if attempts < 4 then begin
          reset_token ctx;
          go (attempts + 1)
        end
        else begin
          record_slack ();
          `Error "worker domains kept dying"
        end
    | exception Fault.Injected_crash msg ->
        record_slack ();
        `Error msg
  in
  go 0

let respond ctx hooks r ~degraded exec reqs =
  let out = Executor.lookup exec r.output_buf in
  List.iteri
    (fun i q ->
      (* A request whose deadline passed while the batch ran gets the
         runtime timeout: the answer exists but is stale by contract. *)
      if ctx.clock > hooks.deadline q then begin
        Serve_metrics.record_cancelled ctx.metrics;
        hooks.answer q Timed_out
      end
      else begin
        let row = Tensor.sub_left out i in
        let output = Array.init (Tensor.numel row) (Tensor.get1 row) in
        let latency = ctx.clock -. hooks.arrival q in
        let quantized = (not degraded) && r.quantized in
        Serve_metrics.record_done ctx.metrics ~quantized ~degraded ~latency ();
        hooks.answer q (Answered { output; degraded; quantized; latency })
      end)
    reqs

let run_reference ctx hooks r ~plans reqs =
  Serve_metrics.record_degraded_batch ctx.metrics;
  (* A previous batch may have left the shared token cancelled; the
     reference executor checks it too. *)
  reset_token ctx;
  fill_inputs hooks r r.reference reqs;
  Executor.forward r.reference;
  ctx.clock <- ctx.clock +. simulated_cost plans r.ref_costs;
  respond ctx hooks r ~degraded:true r.reference reqs

(* A cancelled batch discards its partial work: every non-parameter
   buffer is repacked clean so the next run starts from zeroed scratch
   state, and (after a watchdog firing) the worker domains are
   preemptively recycled — a real hang would have left them wedged. *)
let cancel_batch ctx hooks r ~watchdog ~reason reqs =
  Executor.scrub r.fast;
  hooks.on_event (Cancelled { requests = List.length reqs; reason });
  if watchdog then begin
    match Executor.pool r.fast with
    | Some p ->
        let n = Domain_pool.respawn_workers p in
        for _ = 1 to n do Serve_metrics.record_respawn ctx.metrics done;
        if n > 0 then
          hooks.on_event
            (Respawned { workers = n; reason = "post-watchdog worker recycle" })
    | None -> ()
  end;
  List.iter
    (fun q ->
      Serve_metrics.record_cancelled ctx.metrics;
      hooks.answer q Timed_out)
    reqs

let run_batch ctx hooks r ~breaker ~plans reqs =
  if not (Breaker.allow_fast breaker ~now:ctx.clock) then begin
    run_reference ctx hooks r ~plans reqs;
    `Answered
  end
  else begin
    let probing = Breaker.state breaker = `Half_open in
    let n_live = List.length reqs in
    let max_deadline =
      List.fold_left (fun acc q -> Float.max acc (hooks.deadline q)) Float.neg_infinity
        reqs
    in
    fill_inputs hooks r r.fast reqs;
    let rec attempt k =
      match try_fast ctx hooks r ~plans ~max_deadline ~n_live with
      | `Ok ->
          Breaker.on_success breaker ~now:ctx.clock;
          hooks.on_success ();
          respond ctx hooks r ~degraded:false r.fast reqs;
          `Answered
      | `Cancelled (reason, watchdog) ->
          (* Not a correctness failure: the breaker state is untouched
             and there is no retry — the batch is already past due. *)
          cancel_batch ctx hooks r ~watchdog ~reason reqs;
          `Answered
      | `Error reason -> (
          Serve_metrics.record_fast_failure ctx.metrics;
          Breaker.on_failure breaker ~now:ctx.clock ~reason;
          match hooks.on_failure reason with
          | `Rerun -> `Rerun
          | `Continue ->
              (* Retry only while the breaker still trusts the fast
                 path; a half-open probe gets exactly one attempt. *)
              if (not probing) && k < ctx.max_retries
                 && Breaker.state breaker = `Closed
              then begin
                Serve_metrics.record_retry ctx.metrics;
                ctx.clock <- ctx.clock +. (ctx.backoff *. (2.0 ** float_of_int k));
                attempt (k + 1)
              end
              else begin
                run_reference ctx hooks r ~plans reqs;
                `Answered
              end)
    in
    attempt 0
  end
