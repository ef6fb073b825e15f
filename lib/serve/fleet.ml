type status =
  | Queued
  | Batched
  | Done of {
      output : float array;
      degraded : bool;
      latency : float;
      tenant : string;
      model : string;
      version : int;
    }
  | Timeout
  | Shed
  | Throttled

type version_state = {
  version : int;
  breaker : Breaker.t;
  faults : Fault.t;
  forwards : int ref;  (* this version's fast forwards: its plan's index *)
  mutable seen_transitions : int;
}

type update = { next : version_state; started_at : float; ready_at : float }

type model_state = {
  m_name : string;
  mutable active : version_state;
  mutable prior : version_state option;  (* pinned, for instant rollback *)
  mutable pending : update option;
  mutable next_version : int;  (* monotone: a rolled-back number is burnt *)
  mutable settle_left : int;
  mutable history : version_state list;  (* newest first, for reports *)
}

type event =
  | Compiled of {
      model : string;
      version : int;
      key : string;
      at : float;
      wall_seconds : float;
    }
  | Update_started of {
      model : string;
      version : int;
      at : float;
      ready_at : float;
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
  | Breaker_moved of {
      model : string;
      version : int;
      transition : Breaker.transition;
    }
  | Cancelled_batch of {
      model : string;
      at : float;
      requests : int;
      reason : string;
    }
  | Respawned of { model : string; at : float; workers : int; reason : string }
  | Mem_pressure of { at : float; bytes : int; evicted : int }

let event_to_string = function
  | Compiled { model; version; key; at; wall_seconds } ->
      Printf.sprintf "t=%.6fs  %s: compiled v%d as %s (%.0f ms wall)" at model
        version key (wall_seconds *. 1e3)
  | Update_started { model; version; at; ready_at } ->
      Printf.sprintf
        "t=%.6fs  %s: rolling update to v%d started (swap due t=%.6fs)" at model
        version ready_at
  | Swapped { model; from_version; to_version; at } ->
      Printf.sprintf "t=%.6fs  %s: swapped v%d -> v%d" at model from_version
        to_version
  | Rolled_back { model; from_version; to_version; at; reason } ->
      Printf.sprintf "t=%.6fs  %s: rolled back v%d -> v%d (%s)" at model
        from_version to_version reason
  | Committed { model; version; at } ->
      Printf.sprintf "t=%.6fs  %s: committed v%d" at model version
  | Breaker_moved { model; version; transition } ->
      Printf.sprintf "t=%.6fs  %s: breaker v%d %s -> %s (%s)"
        transition.Breaker.at model version
        (Breaker.state_name transition.Breaker.from_state)
        (Breaker.state_name transition.Breaker.to_state)
        transition.Breaker.reason
  | Cancelled_batch { model; at; requests; reason } ->
      Printf.sprintf "t=%.6fs  %s: cancelled batch of %d request(s) mid-run (%s)"
        at model requests reason
  | Respawned { model; at; workers; reason } ->
      Printf.sprintf "t=%.6fs  %s: respawned %d worker domain(s) (%s)" at model
        workers reason
  | Mem_pressure { at; bytes; evicted } ->
      Printf.sprintf
        "t=%.6fs  memory pressure: %d byte(s) charged, %d entry(ies) evicted"
        at bytes evicted

type t = {
  registry : Registry.t;
  router : Router.t;
  ctx : Replica.ctx;  (* the fleet clock, fleet-level metrics and policy *)
  tenant_metrics : (string, Serve_metrics.t) Hashtbl.t;
  model_states : (string, model_state) Hashtbl.t;
  statuses : (int, status) Hashtbl.t;
  faults : Fault.t;  (* fleet-wide plan; versions carry their own *)
  failure_threshold : int;
  cooldown : float;
  settle_forwards : int;
  mutable kills_armed : bool;
      (* Fleet-plan kill-domain faults are armed onto the shared pool
         the first time an executor (and thus the pool) exists. *)
  mutable events : event list;  (* newest first *)
  forwards : int ref;  (* fleet-wide fast forwards: the fleet plan's index *)
  mutable next_id : int;
  mutable swaps : int;
  mutable rollbacks : int;
}

let now t = t.ctx.Replica.clock

let fresh_version t ~version ~faults =
  { version;
    breaker = Breaker.create ~threshold:t.failure_threshold ~cooldown:t.cooldown ();
    faults; forwards = ref 0; seen_transitions = 0 }

let create ?(failure_threshold = 1) ?(cooldown = 5e-3) ?(max_retries = 1)
    ?(backoff = 1e-4) ?(settle_forwards = 8) ?(watchdog_slack = 8.0)
    ?(faults = Fault.none) ~registry ~tenants () =
  let ctx =
    Replica.ctx ~caller:"Fleet.create" ~max_retries ~backoff ~watchdog_slack
      ~token:(Registry.opts registry).Executor.Run_opts.token
  in
  if settle_forwards <= 0 then
    invalid_arg
      (Printf.sprintf "Fleet.create: settle_forwards %d <= 0" settle_forwards);
  let router = Router.create tenants in
  let t =
    { registry; router; ctx; tenant_metrics = Hashtbl.create 8;
      model_states = Hashtbl.create 8; statuses = Hashtbl.create 256; faults;
      failure_threshold; cooldown; settle_forwards; kills_armed = false;
      events = []; forwards = ref 0; next_id = 0; swaps = 0; rollbacks = 0 }
  in
  List.iter
    (fun name ->
      Hashtbl.replace t.tenant_metrics name (Serve_metrics.create ()))
    (Router.tenant_names router);
  List.iter
    (fun name ->
      let vs = fresh_version t ~version:0 ~faults:Fault.none in
      Hashtbl.replace t.model_states name
        { m_name = name; active = vs; prior = None; pending = None;
          next_version = 1; settle_left = 0; history = [ vs ] })
    (Registry.models registry);
  t

let model_state t name =
  match Hashtbl.find_opt t.model_states name with
  | Some ms -> ms
  | None ->
      invalid_arg
        (Printf.sprintf "Fleet: unknown model %s (registered: %s)" name
           (String.concat ", " (Registry.models t.registry)))

let tenant_metric t name =
  match Hashtbl.find_opt t.tenant_metrics name with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Fleet: unknown tenant %s (tenants: %s)" name
           (String.concat ", " (Router.tenant_names t.router)))

let push_event t e = t.events <- e :: t.events

let arm_kills pool plan =
  List.iter
    (fun (worker, at_dispatch) -> Domain_pool.arm_kill pool ~worker ~at_dispatch)
    (Fault.domain_kills plan)

(* Registry.get with a Compiled event the first time a (model, version)
   is actually built — the observable trace of lazy compilation. *)
let entry t name ~version =
  let missed = Registry.peek t.registry name ~version = None in
  let e = Registry.get t.registry name ~version in
  if missed then
    push_event t
      (Compiled
         { model = name; version; key = e.Registry.key; at = now t;
           wall_seconds = e.Registry.compile_wall_seconds });
  (* Every executor in the fleet multiplexes one shared domain pool, so
     the fleet plan's kill-domain faults arm once, as soon as any
     prepared executor gives us a handle on it. *)
  (match Executor.pool e.Registry.replica.Replica.fast with
  | Some p when not t.kills_armed ->
      arm_kills p t.faults;
      t.kills_armed <- true
  | _ -> ());
  e

let drain_breaker_events t ms vs =
  let trs = Breaker.transitions vs.breaker in
  let n = List.length trs in
  if n > vs.seen_transitions then begin
    List.iteri
      (fun i tr ->
        if i >= vs.seen_transitions then
          push_event t
            (Breaker_moved { model = ms.m_name; version = vs.version; transition = tr }))
      trs;
    vs.seen_transitions <- n
  end

(* ------------------------------------------------------------------ *)
(* Clock and admission                                                 *)
(* ------------------------------------------------------------------ *)

let advance t dt =
  if dt < 0.0 then invalid_arg (Printf.sprintf "Fleet.advance: dt %g < 0" dt);
  t.ctx.Replica.clock <- now t +. dt

let advance_to t time = if time > now t then t.ctx.Replica.clock <- time

let submit t ~tenant ~model ?deadline features =
  let ms = model_state t model in
  let tm = tenant_metric t tenant in
  let cfg = Router.tenant t.router tenant in
  match entry t model ~version:ms.active.version with
  | exception Registry.Over_budget _ ->
      (* Memory-pressure admission control: the model cannot be made
         resident under the process budget, so the request is refused
         up front rather than queued against an executor that will
         never fit. *)
      let id = t.next_id in
      t.next_id <- id + 1;
      Serve_metrics.record_submitted t.ctx.Replica.metrics;
      Serve_metrics.record_submitted tm;
      Hashtbl.replace t.statuses id Shed;
      Serve_metrics.record_shed t.ctx.Replica.metrics;
      Serve_metrics.record_shed tm;
      Serve_metrics.record_mem_shed t.ctx.Replica.metrics;
      Serve_metrics.record_mem_shed tm;
      id
  | e ->
      if Array.length features <> e.Registry.replica.Replica.item_numel then
        invalid_arg
          (Printf.sprintf "Fleet.submit: %d features for %s, expected %d"
             (Array.length features) model e.Registry.replica.Replica.item_numel);
      let id = t.next_id in
      t.next_id <- id + 1;
      Serve_metrics.record_submitted t.ctx.Replica.metrics;
      Serve_metrics.record_submitted tm;
      let deadline =
        now t
        +. (match deadline with Some d -> d | None -> cfg.Router.deadline)
      in
      let r =
        { Router.id; tenant; model; features; arrival = now t; deadline }
      in
      (match Router.admit t.router ~now:(now t) r with
      | `Admitted -> Hashtbl.replace t.statuses id Queued
      | `Throttled ->
          Hashtbl.replace t.statuses id Throttled;
          Serve_metrics.record_throttled t.ctx.Replica.metrics;
          Serve_metrics.record_throttled tm
      | `Shed ->
          Hashtbl.replace t.statuses id Shed;
          Serve_metrics.record_shed t.ctx.Replica.metrics;
          Serve_metrics.record_shed tm);
      id

(* ------------------------------------------------------------------ *)
(* Rolling updates                                                     *)
(* ------------------------------------------------------------------ *)

let begin_update t ~model ?(faults = Fault.none) ?(compile_seconds = 0.05) () =
  let ms = model_state t model in
  if ms.pending <> None then
    invalid_arg (Printf.sprintf "Fleet.begin_update: %s update already in flight" model);
  if ms.prior <> None then
    invalid_arg
      (Printf.sprintf "Fleet.begin_update: %s previous update still settling" model);
  let version = ms.next_version in
  ms.next_version <- version + 1;
  (* The new version compiles now (in the background of the simulated
     timeline: traffic keeps flowing until [ready_at]) and both sides of
     the swap are pinned so LRU churn cannot evict the rollback target. *)
  let e = entry t model ~version in
  List.iter
    (fun buf -> ignore (Executor.lookup e.Registry.replica.Replica.fast buf))
    (Fault.poison_output_bufs faults);
  (* The new version's own plan may inject worker-domain deaths (its
     dispatch indices count on the shared pool, like the fleet plan's). *)
  (match Executor.pool e.Registry.replica.Replica.fast with
  | Some p -> arm_kills p faults
  | None -> ());
  Registry.pin t.registry model ~version;
  Registry.pin t.registry model ~version:ms.active.version;
  let vs = fresh_version t ~version ~faults in
  ms.pending <- Some { next = vs; started_at = now t;
                       ready_at = now t +. compile_seconds };
  push_event t
    (Update_started { model; version; at = now t;
                      ready_at = now t +. compile_seconds });
  version

let swap_due t ms =
  match ms.pending with
  | Some u when u.ready_at <= now t ->
      let from_v = ms.active.version in
      ms.prior <- Some ms.active;
      ms.active <- u.next;
      ms.history <- u.next :: ms.history;
      ms.pending <- None;
      ms.settle_left <- t.settle_forwards;
      t.swaps <- t.swaps + 1;
      push_event t
        (Swapped { model = ms.m_name; from_version = from_v;
                   to_version = u.next.version; at = now t })
  | _ -> ()

let commit t ms prior_vs =
  Registry.unpin t.registry ms.m_name ~version:prior_vs.version;
  Registry.unpin t.registry ms.m_name ~version:ms.active.version;
  ms.prior <- None;
  push_event t
    (Committed { model = ms.m_name; version = ms.active.version; at = now t })

let rollback t ms prior_vs ~reason =
  let failed = ms.active in
  Registry.unpin t.registry ms.m_name ~version:failed.version;
  Registry.unpin t.registry ms.m_name ~version:prior_vs.version;
  ms.active <- prior_vs;
  ms.prior <- None;
  ms.settle_left <- 0;
  t.rollbacks <- t.rollbacks + 1;
  push_event t
    (Rolled_back { model = ms.m_name; from_version = failed.version;
                   to_version = prior_vs.version; at = now t; reason })

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

(* Run one batch against the model's active version on the shared batch
   core. Both fault plans apply: the fleet-wide one at the fleet-global
   forward index, the version's own at the version's index (how a chaos
   scenario targets a freshly-swapped version). A fast failure inside an
   update's settle window (prior version still pinned) rolls the model
   back as soon as the new version's breaker opens, and the batch is
   re-run on the restored version — the tenants never see the bad
   release. Outside that window the Server semantics apply. *)
let rec run_on_active t ms reqs =
  let vs = ms.active in
  let e = entry t ms.m_name ~version:vs.version in
  (* The core moves the breaker; its transitions join the timeline
     before whatever the core reports next, keeping it chronological. *)
  let note ev =
    drain_breaker_events t ms vs;
    push_event t ev
  in
  let hooks =
    { Replica.features = (fun (r : Router.request) -> r.Router.features);
      arrival = (fun r -> r.Router.arrival);
      deadline = (fun r -> r.Router.deadline);
      answer =
        (fun r a ->
          let tm = tenant_metric t r.Router.tenant in
          Hashtbl.replace t.statuses r.Router.id
            (match a with
            | Replica.Answered { output; degraded; quantized; latency } ->
                Serve_metrics.record_done tm ~quantized ~degraded ~latency ();
                Done { output; degraded; latency; tenant = r.Router.tenant;
                       model = r.Router.model; version = vs.version }
            | Replica.Timed_out ->
                Serve_metrics.record_cancelled tm;
                Timeout));
      on_event =
        (function
        | Replica.Respawned { workers; reason } ->
            note (Respawned { model = ms.m_name; at = now t; workers; reason })
        | Replica.Cancelled { requests; reason } ->
            note (Cancelled_batch { model = ms.m_name; at = now t; requests; reason }));
      on_success =
        (fun () ->
          drain_breaker_events t ms vs;
          match ms.prior with
          | Some prior_vs ->
              ms.settle_left <- ms.settle_left - 1;
              if ms.settle_left <= 0 then commit t ms prior_vs
          | None -> ());
      on_failure =
        (fun reason ->
          drain_breaker_events t ms vs;
          match ms.prior with
          | Some prior_vs when Breaker.state vs.breaker = `Open ->
              rollback t ms prior_vs ~reason;
              `Rerun
          | _ -> `Continue) }
  in
  match
    Replica.run_batch t.ctx hooks e.Registry.replica ~breaker:vs.breaker
      ~plans:[ (t.faults, t.forwards); (vs.faults, vs.forwards) ]
      reqs
  with
  | `Answered -> ()
  | `Rerun -> run_on_active t ms reqs

(* ------------------------------------------------------------------ *)
(* The scheduling step                                                 *)
(* ------------------------------------------------------------------ *)

let expire_due t =
  List.iter
    (fun (r : Router.request) ->
      Hashtbl.replace t.statuses r.Router.id Timeout;
      Serve_metrics.record_timeout t.ctx.Replica.metrics;
      Serve_metrics.record_timeout (tenant_metric t r.Router.tenant))
    (Router.expire t.router ~now:(now t))

(* An armed alloc-spike fault lands here: the external allocation is
   charged to the process ledger and the registry immediately evicts
   LRU entries to get back under the budget — observable memory
   pressure, not silent over-commit. *)
let apply_alloc_spikes t =
  let bytes = Fault.alloc_spike_due t.faults in
  if bytes > 0 then begin
    Buffer_pool.charge_external bytes;
    let evicted = Registry.enforce_budget t.registry in
    push_event t (Mem_pressure { at = now t; bytes; evicted })
  end

let shed_batch t reqs =
  List.iter
    (fun (r : Router.request) ->
      Hashtbl.replace t.statuses r.Router.id Shed;
      Serve_metrics.record_shed t.ctx.Replica.metrics;
      Serve_metrics.record_mem_shed t.ctx.Replica.metrics;
      let tm = tenant_metric t r.Router.tenant in
      Serve_metrics.record_shed tm;
      Serve_metrics.record_mem_shed tm)
    reqs

let pump t =
  apply_alloc_spikes t;
  List.iter
    (fun name -> swap_due t (model_state t name))
    (Registry.models t.registry);
  expire_due t;
  let batch_of model =
    (* Under extreme memory pressure the model may not be admissible at
       all; 1 is a safe batch floor — the batch is shed below. *)
    match entry t model ~version:(model_state t model).active.version with
    | e -> e.Registry.replica.Replica.batch
    | exception Registry.Over_budget _ -> 1
  in
  match Router.select t.router ~batch_of with
  | None -> false
  | Some (model, reqs) ->
      List.iter
        (fun (r : Router.request) -> Hashtbl.replace t.statuses r.Router.id Batched)
        reqs;
      Serve_metrics.record_batch t.ctx.Replica.metrics;
      (try run_on_active t (model_state t model) reqs
       with Registry.Over_budget _ -> shed_batch t reqs);
      true

let drain t =
  while Router.total_queued t.router > 0 do
    ignore (pump t)
  done

(* ------------------------------------------------------------------ *)
(* Observers                                                           *)
(* ------------------------------------------------------------------ *)

let status t id =
  match Hashtbl.find_opt t.statuses id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Fleet.status: unknown request id %d" id)

let unanswered t =
  Hashtbl.fold
    (fun _ s acc -> match s with Queued | Batched -> acc + 1 | _ -> acc)
    t.statuses 0

let metrics t = t.ctx.Replica.metrics
let tenant_metrics t name = tenant_metric t name
let forwards t = !(t.forwards)
let swaps t = t.swaps
let rollbacks t = t.rollbacks
let events t = List.rev t.events

let active_version t model = (model_state t model).active.version
let breaker t model = (model_state t model).active.breaker
let update_in_flight t model =
  let ms = model_state t model in
  ms.pending <> None || ms.prior <> None

let oldest_wait t = Router.oldest_wait t.router ~now:(now t)
let queued t = Router.total_queued t.router

let batch_size t model =
  (entry t model ~version:(model_state t model).active.version).Registry.replica.Replica.batch

let item_numel t model =
  (entry t model ~version:(model_state t model).active.version).Registry.replica.Replica.item_numel

let param_bytes t model =
  (entry t model ~version:(model_state t model).active.version).Registry.replica.Replica.param_bytes

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let report t =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "fleet: %d model(s), %d tenant(s), registry %s"
    (List.length (Registry.models t.registry))
    (List.length (Router.tenant_names t.router))
    (Registry.stats_to_string (Registry.stats t.registry));
  List.iter
    (fun name ->
      let ms = model_state t name in
      line "model %-12s active v%d  breaker %s%s" name ms.active.version
        (Breaker.to_string ms.active.breaker)
        (match (ms.pending, ms.prior) with
        | Some u, _ -> Printf.sprintf "  (update to v%d in flight)" u.next.version
        | _, Some p -> Printf.sprintf "  (settling over prior v%d)" p.version
        | None, None -> ""))
    (Registry.models t.registry);
  Buffer.add_string b (Serve_metrics.report t.ctx.Replica.metrics);
  line "per-tenant:";
  line "  %-10s %6s %6s %8s %6s %6s %9s %9s %9s %8s" "tenant" "subm" "fast"
    "degraded" "tmout" "shed" "throttled" "p95ms" "p99.9ms" "shed%";
  List.iter
    (fun name ->
      let m = tenant_metric t name in
      let subm = Serve_metrics.submitted m in
      let refused = Serve_metrics.shed m + Serve_metrics.throttled m in
      line "  %-10s %6d %6d %8d %6d %6d %9d %9.3f %9.3f %8.1f" name subm
        (Serve_metrics.done_fast m)
        (Serve_metrics.done_degraded m)
        (Serve_metrics.timeout m) (Serve_metrics.shed m)
        (Serve_metrics.throttled m)
        (Serve_metrics.percentile m 95.0 *. 1e3)
        (Serve_metrics.percentile m 99.9 *. 1e3)
        (if subm = 0 then 0.0 else 100.0 *. float_of_int refused /. float_of_int subm))
    (Router.tenant_names t.router);
  (match events t with
  | [] -> line "timeline: empty"
  | evs ->
      line "timeline:";
      List.iter (fun e -> line "  %s" (event_to_string e)) evs);
  (match Fault.events t.faults with
  | [] -> ()
  | fes ->
      List.iter (fun (e : Fault.event) -> line "[fault] %s" e.Fault.what) fes);
  List.iter
    (fun name ->
      let ms = model_state t name in
      List.iter
        (fun vs ->
          List.iter
            (fun (e : Fault.event) ->
              line "[fault %s v%d] %s" ms.m_name vs.version e.Fault.what)
            (Fault.events vs.faults))
        (List.rev ms.history))
    (Registry.models t.registry);
  Buffer.contents b

