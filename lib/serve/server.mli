(** Fault-tolerant inference serving runtime for one model.

    Wraps one {!Replica} — a fast executor and its f32 reference,
    compiled from the same network with the same seed — behind a
    bounded request queue with:

    - {b dynamic batching}: up to [Program.batch_size] queued requests
      are packed per forward, short batches are zero-padded, and
      per-request outputs are sliced back out of the output buffer;
    - {b admission control}: once the queue's high-water mark is hit,
      new requests are answered [Shed] immediately;
    - {b deadlines}: each request carries an absolute deadline on the
      simulated clock; requests already expired when a batch is formed
      are answered [Timeout] without executing.

    Each formed batch runs through {!Replica.run_batch} against the
    server's {!Breaker} and its one fault plan (indexed by {!forwards});
    that function's documentation is the contract for retry, circuit
    breaking, degradation to the reference, the hang watchdog, mid-run
    cancellation and worker-domain healing. A request cancelled mid-run
    or answered past its deadline becomes [Timeout].

    Every admitted request resolves to exactly one of [Done], [Timeout]
    or [Shed]; time is simulated (batch cost from the {!Cost_model},
    inflated by armed [Fault.Slow_section] specs and stalled by
    [Fault.Hang_section]), so runs are deterministic and independent of
    wall clock. *)

type status =
  | Queued  (** Admitted, waiting for a batch slot. *)
  | Batched  (** In the batch currently being executed. *)
  | Done of { output : float array; degraded : bool; latency : float }
      (** Answered: the request's slice of the output buffer, whether it
          was produced by the reference (degraded) path, and simulated
          seconds from admission to response. *)
  | Timeout
      (** Deadline expired — before the request ran (queue-side), or
          while it ran (mid-run cancellation / runtime deadline). *)
  | Shed  (** Refused at admission: queue full. *)

val status_name : status -> string

type t

val create :
  ?queue_capacity:int ->
  ?failure_threshold:int ->
  ?cooldown:float ->
  ?max_retries:int ->
  ?backoff:float ->
  ?watchdog_slack:float ->
  ?machine:Machine.cpu ->
  ?faults:Fault.t ->
  ?seed:int ->
  ?opts:Executor.Run_opts.t ->
  config:Config.t ->
  input_buf:string ->
  output_buf:string ->
  (unit -> Net.t) ->
  t
(** Compile the network twice ({!Pipeline.compile_pair}), prepare both
    executors under [opts] (default: [config.num_domains] worker
    domains — the batch path runs parallel loops on the domain pool),
    copy the fast program's parameters into the reference (so degraded
    answers are numerically comparable no matter what), and derive
    per-section simulated costs from [machine] (default
    {!Machine.xeon_e5_2699v3}). Defaults: [queue_capacity 64],
    [failure_threshold 1], [cooldown 5e-3]s, [max_retries 1],
    [backoff 1e-4]s base (doubling per retry), [watchdog_slack 8.0]
    (sections may overrun their estimate up to 8x before the hang
    watchdog fires), [faults Fault.none], [seed 42]. When [opts] carries
    no cancellation token a fresh one is installed; armed
    [kill-domain:K@T] faults are translated to {!Domain_pool.arm_kill}
    on the fast executor's pool. Raises [Invalid_argument] when
    [input_buf]/[output_buf] or a buffer named by an armed [poison-out]
    fault does not exist, or when [watchdog_slack < 1]. *)

val batch_size : t -> int
val item_numel : t -> int
(** Flattened feature element count each request must carry. *)

val now : t -> float
(** Current simulated time, seconds. *)

val advance : t -> float -> unit
(** Advance the simulated clock by a non-negative delta. *)

val advance_to : t -> float -> unit
(** Advance the clock to an absolute time (no-op if in the past). *)

val submit : t -> ?deadline:float -> float array -> int
(** Admit a request with [Array.length = item_numel] features; returns
    its id. [deadline] is absolute simulated time (default: none). When
    the queue is full the request is answered [Shed] immediately (its id
    is still valid for {!status}). *)

val queue_length : t -> int
val oldest_wait : t -> float option
(** How long the head-of-line request has been queued, if any. *)

val pump : t -> bool
(** Form and execute one batch: expired requests are answered [Timeout]
    without running, then up to [batch_size] live requests run through
    the breaker-guarded fast/degraded path. [false] when no live request
    was available (expired ones may still have been answered). *)

val drain : t -> unit
(** Pump until the queue is empty. *)

val status : t -> int -> status
(** Raises [Invalid_argument] for an unknown id. *)

val unanswered : t -> int
(** Requests still [Queued]/[Batched] — 0 after {!drain}. *)

val forwards : t -> int
(** Fast-path forwards executed so far (retries and probes included). *)

val watchdog_slack : t -> float

val cancellation_token : t -> Ir_compile.token option
(** The token both executors poll; [None] only when an explicit [opts]
    without a token was somehow forced (never under {!create}). *)

val metrics : t -> Serve_metrics.t
val breaker : t -> Breaker.t

val fast_executor : t -> Executor.t
val reference_executor : t -> Executor.t

val is_quantized : t -> bool
(** Whether the fast path serves from reduced-precision (int8/f16)
    storage — [config.precision] other than [`F32]. The reference
    (degraded) path is always full f32. *)

val section_costs : t -> (string * float) list
(** Modeled simulated seconds per fast-path forward section, before
    slow-section inflation. *)
