(** Multi-tenant model-fleet serving runtime.

    Scales the single-model {!Server} to a fleet: a {!Registry} of
    lazily-compiled, hash-keyed, LRU-evicted replicas over many models;
    a {!Router} that multiplexes the shared domain pool across tenants
    with weighted-fair scheduling, per-tenant token-bucket admission
    control, per-tenant bounded queues and per-tenant deadlines; and
    {e rolling model updates} — the new version compiles in the
    background of the simulated timeline, is atomically swapped in, and
    is instantly rolled back to the pinned prior version the moment its
    circuit breaker opens (a NaN/Inf guard firing opens it at the
    default threshold 1). The batch that tripped the breaker is re-run
    on the restored version, so a bad release never costs a tenant a
    request.

    Each batch runs on the active version's replica through
    {!Replica.run_batch} — the same core {!Server} uses, whose
    documentation is the contract for retry, degradation, the hang
    watchdog, mid-run cancellation and worker-domain healing. The fleet
    supplies two fault plans to it (the fleet-wide plan at the
    fleet-global forward count, and the version's own plan at that
    version's count), turns the core's respawn and cancel reports into
    timeline events, and hooks its settle-window commit and rollback
    onto the core's success and failure callbacks.

    Every admitted request resolves to exactly one of [Done], [Timeout],
    [Shed] (its tenant's queue was full) or [Throttled] (its tenant's
    token bucket was empty) — one tenant's burst can exhaust only its
    own bucket and queue. *)

type status =
  | Queued
  | Batched
  | Done of {
      output : float array;
      degraded : bool;
      latency : float;
      tenant : string;
      model : string;
      version : int;  (** The model version that produced the answer. *)
    }
  | Timeout
  | Shed  (** Refused at admission: the tenant's queue was full. *)
  | Throttled  (** Refused at admission: the tenant's token bucket was empty. *)

(** Fleet lifecycle events, each stamped with simulated time. *)
type event =
  | Compiled of {
      model : string;
      version : int;
      key : string;  (** The registry cache key it compiled under. *)
      at : float;
      wall_seconds : float;
    }
  | Update_started of {
      model : string;
      version : int;
      at : float;
      ready_at : float;  (** When the background compile finishes and the swap lands. *)
    }
  | Swapped of { model : string; from_version : int; to_version : int; at : float }
  | Rolled_back of {
      model : string;
      from_version : int;
      to_version : int;
      at : float;
      reason : string;
    }
  | Committed of { model : string; version : int; at : float }
      (** The update survived its settle window; the prior version is
          unpinned. *)
  | Breaker_moved of {
      model : string;
      version : int;
      transition : Breaker.transition;
    }
  | Cancelled_batch of {
      model : string;
      at : float;
      requests : int;
      reason : string;  (** Watchdog firing or runtime deadline. *)
    }
      (** A batch was cancelled mid-run: partial work discarded, every
          request answered [Timeout] (counted [cancelled_midrun]). *)
  | Respawned of { model : string; at : float; workers : int; reason : string }
      (** Worker domains were recycled — either dead ones healed at the
          barrier, or a post-watchdog preemptive recycle. *)
  | Mem_pressure of { at : float; bytes : int; evicted : int }
      (** An external allocation spike was charged to the process
          ledger; [evicted] registry entries were dropped to get back
          under the budget. *)

type t

val create :
  ?failure_threshold:int ->
  ?cooldown:float ->
  ?max_retries:int ->
  ?backoff:float ->
  ?settle_forwards:int ->
  ?watchdog_slack:float ->
  ?faults:Fault.t ->
  registry:Registry.t ->
  tenants:Router.tenant list ->
  unit ->
  t
(** One model state per registered model (all starting at version 0,
    uncompiled), one metrics stream per tenant. [failure_threshold] /
    [cooldown] parameterize every version's breaker; [settle_forwards]
    (default 8) is how many consecutive successful fast forwards a
    freshly-swapped version must serve before its update commits;
    [watchdog_slack] (default 8.0) is the per-section overrun factor
    past which the hang watchdog cancels the batch (raises
    [Invalid_argument] below 1); [faults] is the fleet-wide plan
    ([slow-section] factors, [hang-section] stalls, [poison-out] and
    [kill-domain] against the fleet-global counters). *)

(** {1 Clock} *)

val now : t -> float
val advance : t -> float -> unit
val advance_to : t -> float -> unit

(** {1 Admission} *)

val submit :
  t -> tenant:string -> model:string -> ?deadline:float -> float array -> int
(** Admit a request (compiling the model's active version lazily if this
    is its first touch). [deadline] is relative seconds (default: the
    tenant's configured deadline). The verdict is immediate:
    queued, [Throttled], or [Shed]. A model that cannot be made resident
    under the process memory budget ({!Registry.Over_budget}) sheds the
    request (counted [mem_shed]). Raises [Invalid_argument] for an
    unknown tenant/model or a wrong feature count. *)

(** {1 Rolling updates} *)

val begin_update :
  t -> model:string -> ?faults:Fault.t -> ?compile_seconds:float -> unit -> int
(** Start a rolling update: the next version number is burnt (monotone
    even across rollbacks), compiled now, pinned together with the
    current active version, and atomically swapped in once
    [compile_seconds] (default 0.05 simulated seconds — the modeled
    background compile) have elapsed. [faults] arms a plan private to
    the new version, its [poison-out] indices counting that version's
    own forwards — chaos scenarios use it to make a release go bad.
    Returns the new version number. Raises [Invalid_argument] when an
    update is already in flight or still settling, or when [faults]
    poisons an unknown buffer. *)

val update_in_flight : t -> string -> bool
(** An update is pending, or swapped but not yet committed. *)

(** {1 Scheduling} *)

val pump : t -> bool
(** One scheduling step: charge any due [alloc-spike] faults (evicting
    registry entries back under the budget), land any due swaps, answer
    deadline-expired requests [Timeout], then weighted-fair-select one
    model batch and run it through the breaker-guarded
    fast/rollback/degraded path — cancelling it mid-run on a watchdog
    firing or once every deadline in it has expired. [false] when no
    live request was available. *)

val drain : t -> unit
(** Pump until every queue is empty. *)

(** {1 Observers} *)

val status : t -> int -> status
(** Raises [Invalid_argument] for an unknown id. *)

val unanswered : t -> int
(** Requests still [Queued]/[Batched] — 0 after {!drain}. *)

val metrics : t -> Serve_metrics.t
(** Fleet-level counters and latency percentiles. *)

val tenant_metrics : t -> string -> Serve_metrics.t
(** One tenant's stream. Raises [Invalid_argument] for unknown names. *)

val forwards : t -> int
(** Fleet-global fast forwards executed (all models, retries included). *)

val swaps : t -> int
val rollbacks : t -> int

val events : t -> event list
(** Chronological lifecycle timeline — compiles, update swaps,
    rollbacks, commits, breaker transitions. *)

val active_version : t -> string -> int
val breaker : t -> string -> Breaker.t
(** The breaker of the model's {e active} version. *)

val oldest_wait : t -> float option
val queued : t -> int
val batch_size : t -> string -> int
val item_numel : t -> string -> int
val param_bytes : t -> string -> float
(** Parameter payload of the active version — what a rolling update
    broadcasts per node ({!Cluster_sim.broadcast_seconds}). *)

val report : t -> string
(** Multi-line report: registry stats, per-model active version and
    breaker state, fleet metrics, the per-tenant table (counts, p95,
    p99.9, shed rate), and the event timeline (update/rollback
    timestamps included). *)
