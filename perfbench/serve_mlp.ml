(* serve-light and serve-heavy: a wall-clock open loop driving [Server].

   An MLP 784-256-10 at batch 8 with the int8 fast path, on 1 domain,
   served from one process with no deadlines set. Requests follow seeded
   Poisson arrivals at one fixed rate for the whole run: light on
   serve-light, heavy on serve-heavy. The load generator pumps when a
   batch is full or when the head request has waited the batching window.
   Chosen because this path uses the tensor layer through [Qblas] and the
   quantized codecs: at light most batches hold one or two requests, so
   per-pump overhead and padding dominate; at heavy, requests queue.

   Latency is timed from when a request was due to when its pump
   returned, so a stall also charges the requests that arrived during
   it. [Fleet], [Router] and [Registry] are not driven: their admission
   control and deadlines run on the simulated clock, which a wall-clock
   load generator cannot load honestly. *)

let batch = 8
let n_inputs = 784
let hidden = 256
let n_classes = 10
let domains = 1

(* Fixed once, never re-derived per run: about 1/10 and 1/2 of the
   full-batch capacity measured on a 2-vCPU x86-64 VM (about 200 req/s,
   see README.md). *)
let light_rps = 22.0
let heavy_rps = 110.0
let window_s = 0.005

(* [throughput_per_s] counts answers within this latency. *)
let latency_limit_s = 0.25

(* Largest |int8 answer - f32 reference answer| accepted. The outputs
   are softmax probabilities; the largest difference measured was about
   0.003. *)
let answer_bound = 0.01

(* The server's admission limit is set far above any queue the two rates
   build, so no request is shed. *)
let queue_capacity = 4096

let build () = Models.mlp ~batch ~n_inputs ~hidden:[ hidden ] ~n_classes

let create ~seed =
  let spec = build () in
  Server.create ~queue_capacity ~seed ~opts:(Harness.run_opts domains)
    ~config:(Harness.config ~domains ~precision:`I8)
    ~input_buf:(spec.Models.data_ens ^ ".value")
    ~output_buf:(spec.Models.output_ens ^ ".value")
    (fun () -> (build ()).Models.net)

type phase = {
  name : string;
  arrivals : float array;  (** Due times, seconds from the phase start. *)
  features : float array array;
}

let phase ~seed ~salt ~rate ~duration name =
  let rng = Rng.create ((seed * 7919) + salt) in
  let drawn =
    Load_gen.poisson_arrivals rng ~n:(int_of_float (rate *. duration *. 2.0) + 64) ~rate
      ~from:0.0
  in
  let arrivals = Array.of_list (List.filter (fun t -> t < duration) (Array.to_list drawn)) in
  {
    name;
    arrivals;
    features = Array.map (fun _ -> Load_gen.features rng ~numel:n_inputs) arrivals;
  }

type served = {
  latency : float array;  (** Seconds from due to answered. *)
  queue_wait : float array;  (** Seconds from due to the start of its pump. *)
  lag : float array;  (** Seconds the generator submitted it late. *)
  outputs : float array option array;  (** Non-degraded answers. *)
  pumps : (float * int) list;  (** Pump seconds and live rows. *)
  wall : float;  (** Phase start to last answer. *)
}

let run_phase tally server p ~gid0 =
  let n = Array.length p.arrivals in
  let latency = Array.make n nan and queue_wait = Array.make n nan in
  let lag = Array.make n 0.0 and outputs = Array.make n None in
  let pending = Queue.create () in
  let pumps = ref [] in
  let t0 = Harness.now () in
  let next = ref 0 in
  while !next < n || not (Queue.is_empty pending) do
    let t = Harness.now () -. t0 in
    while !next < n && p.arrivals.(!next) <= t do
      let id = Server.submit server p.features.(!next) in
      lag.(!next) <- Harness.now () -. t0 -. p.arrivals.(!next);
      Queue.push (id, !next) pending;
      incr next
    done;
    let head_due =
      match Queue.peek_opt pending with Some (_, i) -> p.arrivals.(i) | None -> infinity
    in
    if
      (not (Queue.is_empty pending))
      && (Queue.length pending >= batch || t -. head_due >= window_s || !next >= n)
    then begin
      let live = min batch (Queue.length pending) in
      let gid = gid0 + snd (Queue.peek pending) in
      let start = Harness.now () in
      ignore (Trace.with_span ~group:gid "serve.pump" (fun () -> Server.pump server));
      let stop = Harness.now () in
      pumps := (stop -. start, live) :: !pumps;
      for _ = 1 to live do
        let id, i = Queue.pop pending in
        let due = t0 +. p.arrivals.(i) in
        latency.(i) <- stop -. due;
        queue_wait.(i) <- start -. due;
        let req = Trace.add ~parent:(-1) ~group:(gid0 + i) "serve.request" ~start:due ~stop in
        ignore (Trace.add ~parent:req ~group:(gid0 + i) "serve.queue_wait" ~start:due ~stop:start);
        Harness.attempt tally;
        match Server.status server id with
        | Server.Done { output; degraded = false; _ } -> outputs.(i) <- Some output
        | s ->
            Harness.fail_unless tally false
              (Printf.sprintf "%s: request %d ended %s" p.name i
                 (Server.status_name s))
      done
    end
    else begin
      let wake =
        Float.min (if !next < n then p.arrivals.(!next) else infinity) (head_due +. window_s)
      in
      let dt = wake -. (Harness.now () -. t0) in
      if dt > 0.0 then Unix.sleepf dt
    end
  done;
  { latency; queue_wait; lag; outputs; pumps = List.rev !pumps; wall = Harness.now () -. t0 }

(* After the run: every answer is within [answer_bound] of the f32
   reference executor's output for the same features. *)
let gate tally server (p, s) =
  let spec = build () in
  let rexec = Server.reference_executor server in
  let input = Executor.lookup rexec (spec.Models.data_ens ^ ".value")
  and output = Executor.lookup rexec (spec.Models.output_ens ^ ".value") in
  let worst = ref 0.0 and checked = ref 0 in
  let answered =
    List.filter (fun i -> s.outputs.(i) <> None) (List.init (Array.length p.arrivals) Fun.id)
  in
  let rec chunks = function
    | [] -> ()
    | l ->
        let rows = List.filteri (fun j _ -> j < batch) l in
        Tensor.fill input 0.0;
        List.iteri
          (fun r i ->
            let row = Tensor.sub_left input r in
            Array.iteri (fun j v -> Tensor.set1 row j v) p.features.(i))
          rows;
        Executor.forward rexec;
        List.iteri
          (fun r i ->
            let got = Option.get s.outputs.(i) and row = Tensor.sub_left output r in
            let d = ref 0.0 in
            Array.iteri (fun j v -> d := Float.max !d (Float.abs (v -. Tensor.get1 row j))) got;
            worst := Float.max !worst !d;
            incr checked;
            Harness.fail_unless tally (!d <= answer_bound)
              (Printf.sprintf "%s: request %d is %g from the f32 reference" p.name i !d))
          rows;
        chunks (List.filteri (fun j _ -> j >= batch) l)
  in
  chunks answered;
  [
    ("gate", Printf.sprintf "%d answers vs the f32 reference executor, bound %g" !checked answer_bound);
    ("gate_max_abs_diff", Printf.sprintf "%g" !worst);
  ]

(* One full batch of fixed features through [Server.pump], for the
   exact-repeat allocation count and the tracing-overhead pairs. *)
let full_batch_pump ~traced server =
  let rng = Rng.create 0x5eed in
  for _ = 1 to batch do
    ignore (Server.submit server (Load_gen.features rng ~numel:n_inputs))
  done;
  let pump () = Server.pump server in
  snd
    (Harness.minor_words (fun () ->
         if traced then Trace.with_span ~group:(-1) "serve.pump" pump else pump ()))

(* [name] is the workload's, for the failure messages. *)
let run ~name ~rate ~seed ~seconds ~trace : Harness.outcome =
  let tally = Harness.tally () in
  let repeats = ref [] in
  let p = phase ~seed ~salt:(int_of_float rate) ~rate ~duration:seconds name in
  let rec set_ups i times =
    let server, dt = Harness.time (fun () -> create ~seed) in
    if trace then repeats := [ ("pump", full_batch_pump ~traced:false server) ] :: !repeats;
    if i = Harness.early_setups then (server, dt :: times) else set_ups (i + 1) (dt :: times)
  in
  let server, setup_times = set_ups 1 [] in
  Harness.check_repeat tally name !repeats;
  let s = run_phase tally server p ~gid0:0 in
  let late = List.init Harness.late_setups (fun _ -> snd (Harness.time (fun () -> create ~seed))) in
  let setup_times = setup_times @ late in
  let notes = gate tally server (p, s) in
  let ms xs = List.map (fun s -> s *. 1e3) xs in
  let notes =
    notes
    @ [
        ("rate_rps", Printf.sprintf "%g" rate);
        ("requests", string_of_int (Array.length p.arrivals));
        ("pumps", string_of_int (List.length s.pumps));
      ]
  in
  if not trace then begin
    (* Answers, non-degraded and within the latency limit, per wall
       second of the run. *)
    let good = ref 0 in
    Array.iteri
      (fun i out -> if out <> None && s.latency.(i) <= latency_limit_s then incr good)
      s.outputs;
    {
      Harness.tally;
      metrics =
        Harness.end_to_end ~setup_times
          ~op_ms:(ms (List.filter Float.is_finite (Array.to_list s.latency)))
          ~work_per_s:
            (Harness.metric "throughput_per_s" "1/s" ~samples:(Array.length p.arrivals)
               (float_of_int !good /. s.wall));
      notes;
    }
  end
  else begin
    let fast = Server.fast_executor server in
    let forwards =
      Harness.call_times ~min_reps:10 ~min_s:0.5 (fun () -> Executor.forward fast)
    in
    let forward_s = Harness.median forwards in
    (* Alternating untraced and traced full-batch pumps. *)
    let pairs =
      List.init 6 (fun _ ->
          let plain = snd (Harness.time (fun () -> ignore (full_batch_pump ~traced:false server))) in
          let traced = snd (Harness.time (fun () -> ignore (full_batch_pump ~traced:true server))) in
          (plain, traced))
    in
    let plain_s = Harness.median (List.map fst pairs)
    and traced_s = Harness.median (List.map snd pairs) in
    let qrow =
      match Gemm_rows.qblas_row ~seed (Executor.program fast) with
      | Some (kernel, r) ->
          ( Gemm_rows.metrics ~gflops:"tensor.qgemm_gflops" ~gbps:"tensor.qgemm_computed_gbps" r,
            [ ("qgemm_row", kernel ^ " " ^ Gemm_rows.note r) ] )
      | None -> ([], [])
    in
    let pump_ms = ms (List.map fst s.pumps) in
    {
      Harness.tally;
      metrics =
        fst qrow
        @ [
            Harness.metric "gc.minor_words.pump" "words" ~samples:(List.length !repeats)
              (List.assoc "pump" (List.hd !repeats));
            Harness.median_metric "serve.forward_ms" "ms" (ms forwards);
            Harness.median_metric "serve.queue_wait_ms" "ms"
              (ms (List.filter Float.is_finite (Array.to_list s.queue_wait)));
            Harness.median_metric "serve.pump_ms" "ms" pump_ms;
            Harness.median_metric "serve.overhead_ms" "ms"
              (List.map (fun x -> x -. (forward_s *. 1e3)) pump_ms);
            Harness.metric "serve.batch_fill" "ratio" ~samples:(List.length s.pumps)
              (Harness.mean
                 (List.map (fun (_, live) -> float_of_int live /. float_of_int batch) s.pumps));
            Harness.metric "serve.generator_lag_ms" "ms" ~samples:(Array.length s.lag)
              (Harness.mean (ms (Array.to_list s.lag)));
            Harness.count_metric "serve.degraded" ~samples:1
              (float_of_int (Serve_metrics.done_degraded (Server.metrics server)));
            Harness.metric "trace.overhead_pct" "%" ~samples:(List.length pairs)
              ((traced_s /. plain_s -. 1.0) *. 100.0);
          ];
      notes =
        notes @ snd qrow
        @ [ ("full_batch_capacity_rps", Printf.sprintf "%.1f" (float_of_int batch /. plain_s)) ];
    }
  end
