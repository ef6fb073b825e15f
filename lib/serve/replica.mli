(** One model version's serving replica, and the batch core that both
    serving front ends ({!Server}, and {!Fleet} over a {!Registry}) run
    every batch through.

    A replica is a prepared executor pair — the optimized (fast) program
    and a {!Config.unoptimized} reference compiled from the same network
    with the same seed — plus what the batch path needs to know about
    it: the I/O buffer names, per-section simulated costs, and whether
    the fast path serves from reduced-precision storage.

    {2 The batch contract}

    {!run_batch} runs one batch of up to [batch] requests:

    - {b breaker gate}: when the breaker refuses the fast path, the
      batch goes straight to the reference executor (answers marked
      [degraded]); a [`Half_open] breaker lets exactly one probe
      attempt through;
    - {b section-by-section fast forward}: the batch is zero-padded into
      the input buffer and run with {!Executor.forward_sections}; the
      simulated clock advances per section by the {!Cost_model} estimate,
      inflated by every fault plan's [slow-section] factors and stalled
      by its [hang-section]s;
    - {b mid-run cancellation}: a section overrunning its estimate by
      more than [watchdog_slack] trips the hang watchdog, and a batch
      whose every deadline has expired is cancelled at the next section
      boundary. The partial work is scrubbed ({!Executor.scrub}), every
      request is answered [Timed_out] (counted [cancelled_midrun]), the
      breaker is left alone, and after a watchdog firing the worker
      domains are preemptively respawned;
    - {b self-healing workers}: an injected worker-domain death surfaces
      as {!Domain_pool.Worker_died} with the pool already healed; the
      forward re-runs bit-identically (up to four times);
    - {b output guard}: after a completed forward, the plans' due
      [poison-out] buffers are NaN-filled, then NaN/Inf in the live rows
      of the output buffer fails the attempt;
    - {b bounded retry}: a failed attempt (guard, or injected crash) is
      reported to the breaker and retried with exponential backoff
      ([backoff * 2^k]) up to [max_retries] times while the breaker
      stays [`Closed]; otherwise the batch degrades to the reference;
    - {b answers}: a request whose deadline passed while its batch ran
      is answered [Timed_out]; every other one gets its slice of the
      output buffer and its simulated latency.

    Everything that differs between front ends comes in as data (the
    fault plans and their forward counters, the quantization keep list
    at {!build}) or as {!hooks}; the core never asks who is calling. *)

type t = {
  fast : Executor.t;
  reference : Executor.t;  (** {!Config.unoptimized} degradation target, always f32. *)
  input_buf : string;
  output_buf : string;
  quantized : bool;
      (** The fast path serves from reduced-precision (int8/f16)
          storage; the reference is always full f32. *)
  fast_costs : (string * float) list;
      (** Modeled simulated seconds per fast forward section, before
          slow-section inflation. *)
  ref_costs : (string * float) list;
  batch : int;
  item_numel : int;  (** Flattened feature count of one request. *)
  param_bytes : float;
      (** Parameter payload (f32 bytes) — what a rolling update must
          broadcast to every node ({!Cluster_sim.broadcast_seconds}). *)
}

val build :
  machine:Machine.cpu ->
  opts:Executor.Run_opts.t ->
  seed:int ->
  keep:string list ->
  config:Config.t ->
  input_buf:string ->
  output_buf:string ->
  (unit -> Net.t) ->
  t
(** Compile the network twice ({!Pipeline.compile_pair}) under [seed]
    and prepare both executors under [opts]; copy the fast program's
    parameters into the reference (so degraded answers match the fast
    path's weights whatever order initialization draws happen in); and
    price every forward section on [machine]. Under the [`I8] precision
    preset the fast program is post-training quantized — calibrated on
    synthetic uniform-[0,1) batches (the {!Load_gen} feature
    distribution), repacked and re-prepared — with [input_buf],
    [output_buf] and [keep] held in f32. Raises [Invalid_argument] when
    [input_buf], [output_buf] or a [keep] buffer does not exist. *)

(** {1 The batch core} *)

type ctx = {
  mutable clock : float;  (** The front end's simulated clock, seconds. *)
  metrics : Serve_metrics.t;  (** Batch- and request-level counters. *)
  token : Ir_compile.token option;  (** The cell every executor polls. *)
  max_retries : int;
  backoff : float;  (** Base retry backoff, doubled per retry. *)
  watchdog_slack : float;
}
(** What a front end shares across all of its batches. *)

val ctx :
  caller:string ->
  max_retries:int ->
  backoff:float ->
  watchdog_slack:float ->
  token:Ir_compile.token option ->
  ctx
(** A fresh context at time 0 with fresh metrics. Raises
    [Invalid_argument] (prefixed with [caller]) when [max_retries < 0],
    [backoff < 0] or [watchdog_slack < 1]. *)

type answer =
  | Answered of {
      output : float array;
      degraded : bool;
      quantized : bool;  (** Served by a reduced-precision fast path. *)
      latency : float;
    }
  | Timed_out  (** Cancelled mid-run, or past its deadline when the batch finished. *)

type event =
  | Respawned of { workers : int; reason : string }
  | Cancelled of { requests : int; reason : string }

type 'r hooks = {
  features : 'r -> float array;
  arrival : 'r -> float;
  deadline : 'r -> float;  (** Absolute, on the simulated clock. *)
  answer : 'r -> answer -> unit;
      (** Called exactly once per request; the core has already
          recorded it in [ctx.metrics]. *)
  on_event : event -> unit;
  on_success : unit -> unit;
      (** After the breaker recorded a successful fast forward, before
          the requests are answered. *)
  on_failure : string -> [ `Continue | `Rerun ];
      (** After the breaker recorded a failed fast attempt (with its
          reason). [`Rerun] abandons the batch unanswered: {!run_batch}
          returns [`Rerun] at once and the caller runs it again. *)
}

val run_batch :
  ctx ->
  'r hooks ->
  t ->
  breaker:Breaker.t ->
  plans:(Fault.t * int ref) list ->
  'r list ->
  [ `Answered | `Rerun ]
(** Run one batch (at most [batch] requests) on the replica, per the
    contract above. Each fast attempt takes the next index from every
    plan's counter and consults that plan's faults at it; the counters
    therefore also count the forwards run. *)
