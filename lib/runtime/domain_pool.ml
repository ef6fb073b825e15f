(* A persistent pool of worker domains executing chunked parallel-loop
   jobs (§5.4.3). The caller participates as worker 0; [size - 1]
   domains are spawned once and parked on a condition variable between
   jobs, so per-dispatch cost is one lock + broadcast rather than a
   domain spawn. [run] doubles as a reusable barrier: it returns only
   once every worker has finished the job.

   The pool is self-healing. Each worker slot carries a generation
   counter and a heartbeat (completed-job count). A worker that dies
   (simulated by an armed [arm_kill]) completes its barrier slot on the
   way out, so the failure is detected at the barrier — never as a hang
   — healed by respawning the slot, and surfaced as [Worker_died] so the
   caller can re-run the interrupted job on the recovered pool. A worker
   that hangs inside a job is caught by the optional watchdog deadline
   on [run]: the caller polls the barrier against a wall-clock bound,
   and on expiry abandons the stuck slots (their generation is bumped so
   a late finisher exits as a harmless zombie instead of corrupting a
   future epoch), spawns replacements, and raises [Hung]. *)

exception Worker_died of int list
exception Hung of { workers : int list; waited_s : float }

type slot = {
  worker_ix : int;  (* 1-based; the caller is worker 0 and has no slot. *)
  mutable dom : unit Domain.t option;  (* None once abandoned by the watchdog. *)
  mutable gen : int;  (* Bumped on every respawn/abandon of this slot. *)
  mutable beats : int;  (* Heartbeat: jobs this incarnation completed. *)
}

type t = {
  size : int;
  slots : slot array;  (* Length [size - 1]; slot [i] is worker [i + 1]. *)
  m : Mutex.t;
  cv : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;  (* Bumped per job; workers wait for a change. *)
  mutable remaining : int;  (* Workers still inside the current job. *)
  mutable errors : (int * exn) list;
  mutable dead : int list;  (* Workers that died during the current job. *)
  finished : bool array;  (* Per-slot: reached the barrier for this job. *)
  mutable kills : (int * int) list;  (* Armed (worker, dispatch) deaths. *)
  mutable dispatch_ix : int;  (* 0-based index of the job in flight. *)
  mutable dispatches : int;  (* Total jobs dispatched (size > 1 only). *)
  mutable respawns : int;  (* Worker domains respawned over the lifetime. *)
  mutable zombies : unit Domain.t list;
      (* Abandoned-but-eventually-finishing domains, joined at shutdown. *)
  mutable stopped : bool;
}

let size t = t.size
let dispatches t = t.dispatches
let respawns t = t.respawns
let heartbeats t = Array.map (fun s -> s.beats) t.slots

let worker pool w ~gen ~epoch0 =
  let slot = pool.slots.(w - 1) in
  let my_epoch = ref epoch0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.m;
    while (not pool.stopped) && slot.gen = gen && pool.epoch = !my_epoch do
      Condition.wait pool.cv pool.m
    done;
    if pool.stopped || slot.gen <> gen then begin
      (* Shut down, or this slot was recycled under us: exit. *)
      Mutex.unlock pool.m;
      running := false
    end
    else if List.mem (w, pool.dispatch_ix) pool.kills then begin
      (* Injected death: the domain exits without touching the job. The
         barrier slot is completed on the way out so the failure shows
         up at the barrier (as [Worker_died]) instead of as a hang. *)
      pool.kills <- List.filter (fun k -> k <> (w, pool.dispatch_ix)) pool.kills;
      pool.dead <- w :: pool.dead;
      pool.finished.(w - 1) <- true;
      pool.remaining <- pool.remaining - 1;
      if pool.remaining = 0 then Condition.broadcast pool.cv;
      Mutex.unlock pool.m;
      running := false
    end
    else begin
      my_epoch := pool.epoch;
      let job = Option.get pool.job in
      Mutex.unlock pool.m;
      let err = match job w with () -> None | exception e -> Some e in
      Mutex.lock pool.m;
      if slot.gen <> gen then begin
        (* The watchdog abandoned this slot mid-job and already repaired
           the barrier accounting: exit as a zombie without touching it. *)
        Mutex.unlock pool.m;
        running := false
      end
      else begin
        (match err with
        | Some e -> pool.errors <- (w, e) :: pool.errors
        | None -> ());
        slot.beats <- slot.beats + 1;
        pool.finished.(w - 1) <- true;
        pool.remaining <- pool.remaining - 1;
        if pool.remaining = 0 then Condition.broadcast pool.cv;
        Mutex.unlock pool.m
      end
    end
  done

(* Caller must hold [pool.m]: the epoch is captured here, under the
   lock, so the new worker parks on exactly the epoch current at spawn
   time — reading it from inside the fresh domain would race the next
   dispatch and could park the worker one epoch too far ahead. *)
let spawn_slot pool slot =
  let gen = slot.gen in
  let w = slot.worker_ix in
  let epoch0 = pool.epoch in
  slot.beats <- 0;
  slot.dom <- Some (Domain.spawn (fun () -> worker pool w ~gen ~epoch0))

let create size =
  if size < 1 then
    invalid_arg (Printf.sprintf "Domain_pool.create: size %d < 1" size);
  let pool =
    {
      size;
      slots =
        Array.init (size - 1) (fun i ->
            { worker_ix = i + 1; dom = None; gen = 0; beats = 0 });
      m = Mutex.create ();
      cv = Condition.create ();
      job = None;
      epoch = 0;
      remaining = 0;
      errors = [];
      dead = [];
      finished = Array.make (max 0 (size - 1)) true;
      kills = [];
      dispatch_ix = -1;
      dispatches = 0;
      respawns = 0;
      zombies = [];
      stopped = false;
    }
  in
  Mutex.lock pool.m;
  Array.iter (spawn_slot pool) pool.slots;
  Mutex.unlock pool.m;
  pool

let arm_kill pool ~worker ~at_dispatch =
  if worker < 1 then
    invalid_arg
      (Printf.sprintf "Domain_pool.arm_kill: worker %d < 1 (worker 0 is the caller)" worker);
  if at_dispatch < 0 then
    invalid_arg (Printf.sprintf "Domain_pool.arm_kill: dispatch %d < 0" at_dispatch);
  if pool.size > 1 then begin
    (* Clamp the target into the pool's worker range so fault plans stay
       meaningful at any --domains setting. *)
    let w = 1 + ((worker - 1) mod (pool.size - 1)) in
    Mutex.lock pool.m;
    pool.kills <- (w, at_dispatch) :: pool.kills;
    Mutex.unlock pool.m
  end

let clear_kills pool =
  if pool.size > 1 then begin
    Mutex.lock pool.m;
    pool.kills <- [];
    Mutex.unlock pool.m
  end

let run ?deadline_s pool f =
  if pool.size = 1 then f 0
  else begin
    Mutex.lock pool.m;
    if pool.stopped then begin
      Mutex.unlock pool.m;
      invalid_arg "Domain_pool.run: pool is shut down"
    end;
    if pool.job <> None then begin
      (* A job is in flight: this is a nested call from inside it (or a
         second caller). Dispatching would overwrite the job and the
         barrier count under the running workers. *)
      Mutex.unlock pool.m;
      invalid_arg "Domain_pool.run: a job is already running on this pool"
    end;
    pool.job <- Some f;
    pool.epoch <- pool.epoch + 1;
    pool.remaining <- pool.size - 1;
    pool.errors <- [];
    pool.dead <- [];
    Array.fill pool.finished 0 (pool.size - 1) false;
    pool.dispatch_ix <- pool.dispatches;
    pool.dispatches <- pool.dispatches + 1;
    Condition.broadcast pool.cv;
    Mutex.unlock pool.m;
    (* The caller is worker 0; its exception must not skip the barrier,
       or the pool would be left mid-job. *)
    let mine = match f 0 with () -> None | exception e -> Some (0, e) in
    Mutex.lock pool.m;
    let hung = ref [] in
    let waited = ref 0.0 in
    (match deadline_s with
    | None ->
        while pool.remaining > 0 do
          Condition.wait pool.cv pool.m
        done
    | Some dl ->
        (* Watchdog barrier: no timed Condition.wait in the stdlib, so
           the caller polls. Only armed when a deadline is requested —
           the common path above stays a pure condvar wait. *)
        let t0 = Unix.gettimeofday () in
        while pool.remaining > 0 && !hung = [] do
          waited := Unix.gettimeofday () -. t0;
          if !waited >= dl then begin
            (* Abandon every slot that missed the barrier: bump its
               generation (a late finisher exits as a zombie), spawn a
               replacement parked on the current epoch, and repair the
               barrier count so this job terminates now. *)
            let stuck = ref [] in
            Array.iter
              (fun slot ->
                if not pool.finished.(slot.worker_ix - 1) then begin
                  stuck := slot.worker_ix :: !stuck;
                  slot.gen <- slot.gen + 1;
                  (match slot.dom with
                  | Some d -> pool.zombies <- d :: pool.zombies
                  | None -> ());
                  slot.dom <- None;
                  spawn_slot pool slot;
                  pool.respawns <- pool.respawns + 1
                end)
              pool.slots;
            pool.remaining <- 0;
            hung := List.sort compare !stuck
          end
          else begin
            Mutex.unlock pool.m;
            Unix.sleepf 2e-4;
            Mutex.lock pool.m
          end
        done);
    let errs = pool.errors in
    let dead = List.sort compare pool.dead in
    pool.job <- None;
    (* Heal injected deaths at the barrier: the dead domain's body has
       returned (joinable), so recycle the slot and respawn. *)
    let to_join = ref [] in
    List.iter
      (fun w ->
        let slot = pool.slots.(w - 1) in
        (match slot.dom with
        | Some d -> to_join := d :: !to_join
        | None -> ());
        slot.gen <- slot.gen + 1;
        slot.dom <- None;
        spawn_slot pool slot;
        pool.respawns <- pool.respawns + 1)
      dead;
    Mutex.unlock pool.m;
    List.iter Domain.join !to_join;
    match
      List.sort
        (fun (a, _) (b, _) -> compare (a : int) b)
        (Option.to_list mine @ errs)
    with
    | (_, e) :: _ -> raise e
    | [] ->
        if !hung <> [] then raise (Hung { workers = !hung; waited_s = !waited })
        else if dead <> [] then raise (Worker_died dead)
  end

let respawn_workers pool =
  if pool.size = 1 then 0
  else begin
    Mutex.lock pool.m;
    if pool.stopped then begin
      Mutex.unlock pool.m;
      0
    end
    else begin
      (* Recycle every slot: bump generations and wake the parked
         incarnations so they exit, then join them outside the lock and
         spawn fresh ones. Must be called between jobs. *)
      let olds =
        Array.map
          (fun slot ->
            slot.gen <- slot.gen + 1;
            let d = slot.dom in
            slot.dom <- None;
            d)
          pool.slots
      in
      Condition.broadcast pool.cv;
      Mutex.unlock pool.m;
      Array.iter (function Some d -> Domain.join d | None -> ()) olds;
      Mutex.lock pool.m;
      let n = ref 0 in
      Array.iter
        (fun slot ->
          spawn_slot pool slot;
          incr n;
          pool.respawns <- pool.respawns + 1)
        pool.slots;
      Mutex.unlock pool.m;
      !n
    end
  end

let shutdown pool =
  if pool.size > 1 then begin
    (* Idempotent and exception-safe: the domains to join are taken out
       of the pool under the lock, so a second (or re-entrant, e.g. a
       double at_exit) call finds nothing left and is a no-op rather
       than a second join or a hang. *)
    Mutex.lock pool.m;
    pool.stopped <- true;
    Condition.broadcast pool.cv;
    let doms =
      Array.to_list
        (Array.map
           (fun slot ->
             let d = slot.dom in
             slot.dom <- None;
             d)
           pool.slots)
    in
    let zombies = pool.zombies in
    pool.zombies <- [];
    Mutex.unlock pool.m;
    List.iter
      (function
        | Some d -> ( try Domain.join d with _ -> ())
        | None -> ())
      doms;
    List.iter (fun d -> try Domain.join d with _ -> ()) zombies
  end

let runner pool =
  { Ir_compile.workers = pool.size; run = (fun f -> run pool f) }

let recommended () = Domain.recommended_domain_count ()

(* Process-lifetime pools keyed by size. OCaml caps live domains (~128),
   so executors must share pools rather than owning one each; the pools
   are torn down at exit so the process does not terminate with domains
   parked on a condition variable. *)

let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_m = Mutex.create ()

let shared n =
  let n = max 1 n in
  Mutex.lock registry_m;
  let pool =
    match Hashtbl.find_opt registry n with
    | Some p -> p
    | None ->
        let p = create n in
        Hashtbl.add registry n p;
        p
  in
  Mutex.unlock registry_m;
  pool

let () =
  at_exit (fun () ->
      Mutex.lock registry_m;
      let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
      Hashtbl.reset registry;
      Mutex.unlock registry_m;
      List.iter shutdown pools)
