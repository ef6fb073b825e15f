(* train-lenet: a closed loop of SGD training steps on LeNet-5.

   Each step is [Synthetic.fill_batch] then [Solver.train_step], at
   28x28 and batch 16 on 2 worker domains. Chosen because the
   GEMM-bearing conv and fc sections do most of each step, every GEMM
   variant (NN/TN/NT) runs, and so do the backward pass, the solver and
   the domain pool; compiling is a negligible share of the run. *)

let batch = 16
let image = 28
let n_classes = 10
let domains = 2

(* 32 distinct batches, reused round-robin. *)
let dataset_items = 32 * batch

let tolerance = 1e-4

let build () = Models.lenet ~batch ~image ~n_classes ()

type state = {
  spec : Models.spec;
  exec : Executor.t;
  solver : Solver.t;
  data : Synthetic.dataset;
}

let set_up ~seed =
  let data = Synthetic.mnist_like ~image ~n_classes ~seed ~n:dataset_items () in
  let spec = build () in
  let prog =
    Pipeline.compile ~seed
      (Harness.config ~domains ~precision:`F32)
      spec.Models.net
  in
  let exec = Executor.prepare ~opts:(Harness.run_opts domains) prog in
  { spec; exec; solver = Solver.create Solver.Sgd exec; data }

let fill_into exec (spec : Models.spec) data step =
  Synthetic.fill_batch data ~batch_index:step
    ~data:(Executor.lookup exec (spec.Models.data_ens ^ ".value"))
    ~labels:(Executor.lookup exec spec.Models.label_buf)

let fill st step = fill_into st.exec st.spec st.data step
let loss st = Executor.lookup st.exec st.spec.Models.loss_buf

let loss_finite st =
  let l = loss st in
  let ok = ref true in
  for i = 0 to Tensor.numel l - 1 do
    if not (Float.is_finite (Tensor.get1 l i)) then ok := false
  done;
  !ok

(* Before timing: the first batch's loss and every parameter gradient
   match a [Config.unoptimized] compile of the same net and seed. *)
let gate ~seed tally st =
  fill st 0;
  Executor.forward st.exec;
  Executor.backward st.exec;
  let rspec = build () in
  let rexec =
    Executor.prepare ~opts:(Harness.run_opts 1)
      (Pipeline.compile ~seed Config.unoptimized rspec.Models.net)
  in
  fill_into rexec rspec st.data 0;
  Executor.forward rexec;
  Executor.backward rexec;
  let compare (what, buf) =
    let a = Executor.lookup st.exec buf and b = Executor.lookup rexec buf in
    let d = Tensor.max_abs_diff a b in
    Harness.fail_unless tally
      (Tensor.approx_equal ~tol:tolerance a b)
      (Printf.sprintf "train-lenet gate: %s differs from the unoptimized \
                       compile by %g" what d);
    d
  in
  let bufs =
    ("loss", st.spec.Models.loss_buf)
    :: List.map
         (fun (p : Program.param) -> (p.Program.param_name ^ " gradient", p.Program.grad_buf))
         (Executor.program st.exec).Program.params
  in
  Harness.attempt tally;
  let worst = List.fold_left (fun acc b -> Float.max acc (compare b)) 0.0 bufs in
  [
    ("gate", Printf.sprintf "loss and %d gradients vs unoptimized compile, tol %g"
               (List.length bufs - 1) tolerance);
    ("gate_max_abs_diff", Printf.sprintf "%g" worst);
  ]

(* ------------------------------------------------------------------ *)
(* Traced steps                                                        *)
(* ------------------------------------------------------------------ *)

(* Metric-name component per section: the sanitized label, with a
   [.2], [.3], ... suffix on repeated labels. *)
let section_names (sections : Program.section list) =
  let seen = Hashtbl.create 16 in
  Array.of_list
    (List.map
       (fun (s : Program.section) ->
         let base = Harness.sanitize s.Program.label in
         let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen base) in
         Hashtbl.replace seen base n;
         if n = 1 then base else Printf.sprintf "%s.%d" base n)
       sections)

type traced = {
  step_s : float;
  fill_s : float;
  forward_s : float;
  backward_s : float;
  update_s : float;
  words : (string * float) list;  (** forward/backward/update minor words. *)
  fwd_sections : float array;  (** Seconds per forward section. *)
  bwd_sections : float array;
}

(* One training step with a span around every layer call. Forward
   section times come from [forward_sections ?on_section], backward ones
   from [backward_timed] (laid end to end inside the backward span). *)
let traced_step st ~group ~fwd_names ~bwd_names step =
  let nf = Array.length fwd_names and nb = Array.length bwd_names in
  let fwd_sections = Array.make nf 0.0 and bwd_sections = Array.make nb 0.0 in
  let (fill_s, (fwd_words, forward_s), (bwd_words, backward_s), (upd_words, update_s)), step_s =
    Harness.time (fun () ->
        Trace.with_span ~group "train.step" (fun () ->
            let (), fill_s =
              Harness.time (fun () ->
                  Trace.with_span ~group "data.fill_batch" (fun () -> fill st step))
            in
            let fwd =
              Harness.time (fun () ->
                  Trace.with_span ~group "runtime.forward" (fun () ->
                      let prev = ref (Harness.now ()) in
                      let on_section i _label =
                        let t = Harness.now () in
                        fwd_sections.(i) <- t -. !prev;
                        ignore
                          (Trace.add ~group
                             ("runtime.section.forward." ^ fwd_names.(i))
                             ~start:!prev ~stop:t);
                        prev := t
                      in
                      snd
                        (Harness.minor_words (fun () ->
                             Executor.forward_sections ~on_section st.exec))))
            in
            let bwd =
              Harness.time (fun () ->
                  Trace.with_span ~group "runtime.backward" (fun () ->
                      let start = Harness.now () in
                      let secs, words =
                        Harness.minor_words (fun () -> Executor.backward_timed st.exec)
                      in
                      ignore
                        (List.fold_left
                           (fun (i, t) (_label, s) ->
                             bwd_sections.(i) <- s;
                             ignore
                               (Trace.add ~group
                                  ("runtime.section.backward." ^ bwd_names.(i))
                                  ~start:t ~stop:(t +. s));
                             (i + 1, t +. s))
                           (0, start) secs);
                      words))
            in
            let upd =
              Harness.time (fun () ->
                  Trace.with_span ~group "nn.solver_update" (fun () ->
                      snd (Harness.minor_words (fun () -> Solver.update st.solver))))
            in
            (fill_s, fwd, bwd, upd)))
  in
  {
    step_s;
    fill_s;
    forward_s;
    backward_s;
    update_s;
    words = [ ("forward", fwd_words); ("backward", bwd_words); ("update", upd_words) ];
    fwd_sections;
    bwd_sections;
  }

let untraced_step st step =
  snd
    (Harness.time (fun () ->
         fill st step;
         Solver.train_step st.solver))

(* Compile-time counts: code-generation kernels and the parallel-loop
   schedule. *)
let static_counts exec =
  let sched = Executor.schedule exec in
  List.map (fun (k, n) -> ("runtime.kernels." ^ k, float_of_int n)) (Executor.kernel_stats exec)
  @ [
      ( "runtime.parallel_loops",
        float_of_int
          (List.length
             (List.filter
                (fun (_, (e : Ir_compile.par_entry)) -> e.Ir_compile.par_fallback = None)
                sched)) );
      ( "runtime.replayed_buffers",
        float_of_int
          (List.fold_left
             (fun acc (_, (e : Ir_compile.par_entry)) ->
               acc + List.length e.Ir_compile.par_replayed)
             0 sched) );
    ]

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace : Harness.outcome =
  let tally = Harness.tally () in
  (* In the traced run the first two set-ups (never the last) each take
     one counted step from fresh state, so the exact-repeat counters can
     be compared. *)
  let repeats = ref [] in
  let rec set_ups i times =
    let st, dt = Harness.time (fun () -> set_up ~seed) in
    if i = Harness.early_setups then (st, dt :: times)
    else begin
      if trace && i <= 2 then begin
        let fwd_names = section_names (Executor.program st.exec).Program.forward
        and bwd_names = section_names (Executor.program st.exec).Program.backward in
        let t = traced_step st ~group:(1_000_000 + i) ~fwd_names ~bwd_names 0 in
        repeats := (t.words @ static_counts st.exec) :: !repeats
      end;
      set_ups (i + 1) (dt :: times)
    end
  in
  let st, setup_times = set_ups 1 [] in
  let notes = gate ~seed tally st in
  Harness.check_repeat tally "train-lenet" !repeats;
  let prog = Executor.program st.exec in
  let fwd_names = section_names prog.Program.forward
  and bwd_names = section_names prog.Program.backward in
  let t_end = Harness.now () +. seconds in
  (* The traced run alternates traced and untraced steps; the two medians
     give the tracing overhead. *)
  let min_steps = if trace then 2 else 1 in
  let rec loop step plain traced =
    if step >= min_steps && Harness.now () >= t_end then (List.rev plain, List.rev traced)
    else begin
      let plain, traced =
        if trace && step mod 2 = 0 then
          (plain, traced_step st ~group:step ~fwd_names ~bwd_names step :: traced)
        else (untraced_step st step :: plain, traced)
      in
      Harness.check tally (loss_finite st)
        (Printf.sprintf "train-lenet: non-finite loss at step %d" step);
      loop (step + 1) plain traced
    end
  in
  let plain, traced = loop 0 [] [] in
  let late = List.init Harness.late_setups (fun _ -> snd (Harness.time (fun () -> set_up ~seed))) in
  let steps = List.length plain + List.length traced in
  let notes =
    notes
    @ [
        ("steps", string_of_int steps);
        ("final_loss_mean", Printf.sprintf "%g" (Tensor.sum (loss st) /. float_of_int batch));
      ]
  in
  if not trace then
    {
      Harness.tally;
      metrics =
        Harness.end_to_end ~setup_times:(setup_times @ late)
          ~op_ms:(List.map (fun dt -> dt *. 1e3) plain)
          ~work_per_s:
            (Harness.metric "throughput_per_s" "1/s" ~samples:(List.length plain)
               (float_of_int (batch * List.length plain) /. List.fold_left ( +. ) 0.0 plain));
      notes;
    }
  else begin
    let ms xs = List.map (fun s -> s *. 1e3) xs in
    let field f = List.map f traced in
    let step_ms = Harness.median (field (fun t -> t.step_s *. 1e3)) in
    (* Forward and backward time split by whether the section's IR holds
       an [Ir.Gemm]. *)
    let split dir secs_of sections =
      let sum_where pick t =
        List.fold_left2
          (fun acc s sec -> if Gemm_rows.has_gemm s = pick then acc +. sec else acc)
          0.0 sections (Array.to_list (secs_of t))
      in
      [
        Harness.median_metric (Printf.sprintf "runtime.%s.gemm_sections_ms" dir) "ms"
          (ms (field (fun t -> sum_where true t)));
        Harness.median_metric (Printf.sprintf "runtime.%s.loop_sections_ms" dir) "ms"
          (ms (field (fun t -> sum_where false t)));
      ]
    in
    (* Every section with its measured GFLOP/s against
       [Program.section_cost]'s flop count. The per-layer list in
       metrics.ml keeps the sections that took at least 1% of a step when
       the benchmark was written, so the set of names printed does not
       depend on one run's timings. *)
    let section_rows dir names secs_of sections =
      List.concat
        (List.mapi
           (fun i (s : Program.section) ->
             let times = field (fun t -> (secs_of t).(i)) in
             let flops =
               (Program.section_cost ~width_of:(Program.width_of prog) s).Ir_analysis.flops
             in
             let base = Printf.sprintf "runtime.section.%s.%s" dir names.(i) in
             [
               Harness.median_metric (base ^ ".ms") "ms" (ms times);
               Harness.metric (base ^ ".gflops") "GFLOP/s" ~samples:(List.length times)
                 (flops /. Harness.median times /. 1e9);
             ])
           sections)
    in
    let words name =
      Harness.metric ("gc.minor_words." ^ name) "words" ~samples:(List.length traced)
        (Harness.median (field (fun t -> List.assoc name t.words)))
    in
    let rows = Gemm_rows.blas_rows ~seed prog in
    let row_metrics =
      List.concat_map
        (fun (r : Gemm_rows.row) ->
          Gemm_rows.metrics
            ~gflops:("tensor.gemm_gflops." ^ r.Gemm_rows.label)
            ~gbps:("tensor.gemm_computed_gbps." ^ r.Gemm_rows.label)
            r)
        rows
    in
    let counts =
      List.map
        (fun (name, v) -> Harness.count_metric name ~samples:(List.length !repeats) v)
        (static_counts st.exec)
    in
    let plain_ms = Harness.median (ms plain) in
    let metrics =
      row_metrics
      @ [
          Harness.median_metric "runtime.forward_ms" "ms" (ms (field (fun t -> t.forward_s)));
          Harness.median_metric "runtime.backward_ms" "ms" (ms (field (fun t -> t.backward_s)));
        ]
      @ split "forward" (fun t -> t.fwd_sections) prog.Program.forward
      @ split "backward" (fun t -> t.bwd_sections) prog.Program.backward
      @ section_rows "forward" fwd_names (fun t -> t.fwd_sections) prog.Program.forward
      @ section_rows "backward" bwd_names (fun t -> t.bwd_sections) prog.Program.backward
      @ counts
      @ [
          Harness.count_metric "runtime.respawns" ~samples:1
            (float_of_int (Executor.respawns st.exec));
          words "forward";
          words "backward";
          words "update";
          Harness.median_metric "nn.solver_update_ms" "ms" (ms (field (fun t -> t.update_s)));
          Harness.median_metric "data.fill_batch_ms" "ms" (ms (field (fun t -> t.fill_s)));
          Harness.metric "trace.overhead_pct" "%" ~samples:steps
            ((step_ms /. plain_ms -. 1.0) *. 100.0);
        ]
    in
    {
      Harness.tally;
      metrics;
      notes =
        notes
        @ List.map
            (fun (r : Gemm_rows.row) -> ("gemm_row." ^ r.Gemm_rows.label, Gemm_rows.note r))
            rows;
    }
  end
