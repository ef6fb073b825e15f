type t = {
  mutable submitted : int;
  mutable done_fast : int;
  mutable done_degraded : int;
  mutable done_quantized : int;
  mutable timeout : int;
  mutable shed : int;
  mutable throttled : int;
  mutable batches : int;
  mutable fast_failures : int;
  mutable retries : int;
  mutable degraded_batches : int;
  mutable latencies : float list;  (* newest first *)
  mutable n_latencies : int;
  mutable cancelled_midrun : int;
      (* Requests whose run was cancelled in flight (runtime deadline or
         watchdog) — distinct from queue-side [timeout], which never ran. *)
  mutable watchdog_fired : int;
  mutable mem_shed : int;  (* Sheds specifically due to memory pressure. *)
  mutable respawns : int;  (* Worker domains respawned while serving. *)
  mutable slacks : (float * float) list;  (* (predicted, actual) run times *)
  mutable n_slacks : int;
}

let create () =
  { submitted = 0; done_fast = 0; done_degraded = 0; done_quantized = 0;
    timeout = 0; shed = 0; throttled = 0; batches = 0; fast_failures = 0;
    retries = 0; degraded_batches = 0; latencies = []; n_latencies = 0;
    cancelled_midrun = 0; watchdog_fired = 0; mem_shed = 0; respawns = 0;
    slacks = []; n_slacks = 0 }

let record_submitted t = t.submitted <- t.submitted + 1
let record_shed t = t.shed <- t.shed + 1
let record_throttled t = t.throttled <- t.throttled + 1
let record_timeout t = t.timeout <- t.timeout + 1
let record_cancelled t = t.cancelled_midrun <- t.cancelled_midrun + 1
let record_watchdog t = t.watchdog_fired <- t.watchdog_fired + 1
let record_mem_shed t = t.mem_shed <- t.mem_shed + 1
let record_respawn t = t.respawns <- t.respawns + 1

let record_slack t ~predicted ~actual =
  t.slacks <- (predicted, actual) :: t.slacks;
  t.n_slacks <- t.n_slacks + 1

let record_done t ?(quantized = false) ~degraded ~latency () =
  if degraded then t.done_degraded <- t.done_degraded + 1
  else t.done_fast <- t.done_fast + 1;
  if quantized then t.done_quantized <- t.done_quantized + 1;
  t.latencies <- latency :: t.latencies;
  t.n_latencies <- t.n_latencies + 1

let record_batch t = t.batches <- t.batches + 1
let record_fast_failure t = t.fast_failures <- t.fast_failures + 1
let record_retry t = t.retries <- t.retries + 1
let record_degraded_batch t = t.degraded_batches <- t.degraded_batches + 1

let submitted t = t.submitted
let done_fast t = t.done_fast
let done_degraded t = t.done_degraded
let done_quantized t = t.done_quantized
let timeout t = t.timeout
let shed t = t.shed
let throttled t = t.throttled
let cancelled_midrun t = t.cancelled_midrun
let watchdog_fired t = t.watchdog_fired
let mem_shed t = t.mem_shed
let respawns t = t.respawns
let slack_samples t = t.n_slacks

let answered t =
  t.done_fast + t.done_degraded + t.timeout + t.shed + t.throttled
  + t.cancelled_midrun
let batches t = t.batches
let fast_failures t = t.fast_failures
let retries t = t.retries

(* Linear interpolation between the order statistics (the numpy-default
   estimator): rank h = p/100 * (n-1) lands between samples and the
   result blends its two neighbours, so p95 of a 10-sample set is no
   longer just the 10th sample. *)
let percentile t p =
  if p < 0.0 || p > 100.0 then
    invalid_arg (Printf.sprintf "Serve_metrics.percentile: p %g outside [0, 100]" p);
  if t.n_latencies = 0 then 0.0
  else begin
    let a = Array.of_list t.latencies in
    Array.sort compare a;
    let n = Array.length a in
    let h = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    let frac = h -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

let mean_latency t =
  if t.n_latencies = 0 then 0.0
  else List.fold_left ( +. ) 0.0 t.latencies /. float_of_int t.n_latencies

let report t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "requests: %d submitted = %d fast + %d degraded + %d timeout + %d shed%s%s"
    t.submitted t.done_fast t.done_degraded t.timeout t.shed
    (if t.throttled > 0 then Printf.sprintf " + %d throttled" t.throttled else "")
    (if t.cancelled_midrun > 0 then
       Printf.sprintf " + %d cancelled-midrun" t.cancelled_midrun
     else "");
  line "batches:  %d dispatched (%d degraded), %d fast failure(s), %d retry(ies)"
    t.batches t.degraded_batches t.fast_failures t.retries;
  (* Robustness lines appear only when the corresponding machinery
     actually triggered, so healthy-run transcripts stay byte-identical
     to what existing tests and CI greps pin. *)
  if t.cancelled_midrun > 0 || t.watchdog_fired > 0 then
    line "cancelled: %d request(s) cancelled mid-run (%d watchdog firing(s))"
      t.cancelled_midrun t.watchdog_fired;
  if t.respawns > 0 then
    line "pool:     %d worker domain respawn(s)" t.respawns;
  if t.mem_shed > 0 then
    line "memory:   %d request(s) shed under memory pressure" t.mem_shed;
  (* Printed only for reduced-precision serving so f32 reports stay
     byte-identical to what existing transcripts pin. *)
  if t.done_quantized > 0 then
    line "precision: %d quantized response(s) + %d f32"
      t.done_quantized
      (t.done_fast + t.done_degraded - t.done_quantized);
  if t.n_latencies > 0 then
    line
      "latency:  mean %.3f ms   p50 %.3f ms   p95 %.3f ms   p99 %.3f ms   \
       p99.9 %.3f ms"
      (mean_latency t *. 1e3)
      (percentile t 50.0 *. 1e3)
      (percentile t 95.0 *. 1e3)
      (percentile t 99.0 *. 1e3)
      (percentile t 99.9 *. 1e3)
  else line "latency:  no completed requests";
  Buffer.contents b

(* Deadline-slack distribution: how actual run time compared to the
   cost model's prediction, per fast-path run. Kept out of [report] (and
   printed separately by serve-sim/fleet-sim) so existing pinned
   transcripts do not change. *)
let slack_report t =
  if t.n_slacks = 0 then None
  else begin
    let ratios =
      Array.of_list
        (List.map
           (fun (predicted, actual) ->
             if predicted > 0.0 then actual /. predicted else 1.0)
           t.slacks)
    in
    Array.sort compare ratios;
    let n = Array.length ratios in
    let at p =
      let h = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor h) in
      let hi = min (n - 1) (lo + 1) in
      let frac = h -. float_of_int lo in
      (ratios.(lo) *. (1.0 -. frac)) +. (ratios.(hi) *. frac)
    in
    let overruns =
      List.fold_left
        (fun acc (predicted, actual) -> if actual > predicted then acc + 1 else acc)
        0 t.slacks
    in
    Some
      (Printf.sprintf
         "slack:    actual/predicted run time over %d run(s): p50 %.2fx   \
          p95 %.2fx   max %.2fx   (%d overrun(s))"
         n (at 50.0) (at 95.0)
         ratios.(n - 1)
         overruns)
  end
