(* compile-zoo: compile, prepare and analyze the seven stock models.

   Batch 8 at [Models.bench_scale], on 1 domain, with no execution in
   the timed loop. Each step runs, for every model, [Pipeline.compile],
   then [Executor.prepare], then [Program.analyze] and [Program.races].
   Chosen because compiler passes, code generation and the analyzers do
   all the work here and GEMM and serving do none: a runtime or kernel
   change should show no change on this workload, and a compiler change
   must show here. *)

let batch = 8
let scale = Models.bench_scale
let domains = 1
let tolerance = 1e-4

let zoo : (string * (unit -> Models.spec)) list =
  let image = scale.Models.image in
  [
    ("mlp", fun () -> Models.mlp ~batch ~n_inputs:(image * image) ~hidden:[ 64 ] ~n_classes:10);
    ("lenet", fun () -> Models.lenet ~batch ~image ~n_classes:10 ());
    ("vgg-block", fun () -> Models.vgg_first_block ~batch ~scale);
    ("alexnet", fun () -> Models.alexnet ~batch ~scale ());
    ("vgg", fun () -> Models.vgg ~batch ~scale);
    ("overfeat", fun () -> Models.overfeat ~batch ~scale);
    ("resnet-tiny", fun () -> Models.resnet_tiny ~batch ~image ~n_classes:10 ());
  ]

let config = Harness.config ~domains ~precision:`F32

let conflicting races =
  List.exists
    (fun (_, loops) ->
      List.exists
        (fun (l : Ir_deps.loop_report) ->
          List.exists
            (fun (v : Ir_deps.buffer_verdict) ->
              match v.Ir_deps.bv_verdict with Ir_deps.Conflicting _ -> true | _ -> false)
            l.Ir_deps.lr_verdicts)
        loops)
    races

let check_analysis tally name prog =
  let report = Program.analyze prog in
  let races = Program.races prog in
  Harness.attempt tally;
  Harness.fail_unless tally
    (Ir_bounds.fatal_findings report = [])
    (Printf.sprintf "compile-zoo %s: the bounds analyzer reports a fatal finding" name);
  Harness.fail_unless tally (not (conflicting races))
    (Printf.sprintf "compile-zoo %s: a parallel loop has a Conflicting verdict" name)

(* One untimed-API step: every model through compile, prepare, analyze
   and races; seconds spent compiling+preparing and analyzing. *)
let step ~seed tally =
  List.fold_left
    (fun (compile_s, analyze_s, execs) (name, build) ->
      let spec = build () in
      let (prog, exec), dc =
        Harness.time (fun () ->
            let prog = Pipeline.compile ~seed config spec.Models.net in
            (prog, Executor.prepare ~opts:(Harness.run_opts domains) prog))
      in
      let (), da = Harness.time (fun () -> check_analysis tally name prog) in
      (compile_s +. dc, analyze_s +. da, (name, spec, exec) :: execs))
    (0.0, 0.0, []) zoo
  |> fun (c, a, execs) -> (c, a, List.rev execs)

type traced = {
  total_s : float;
  per_model : (string * (float * float * float)) list;
      (** compile, prepare, analyze+races seconds. *)
  pass_s : (string * float) list;  (** Zoo sum per pass. *)
  words : float;  (** Minor words allocated compiling the zoo. *)
  counts : (string * float) list;  (** IR census and kernel counts. *)
}

let add_assoc k v l =
  match List.assoc_opt k l with
  | Some x -> (k, x +. v) :: List.remove_assoc k l
  | None -> (k, v) :: l

(* The same step with spans, [Pass_manager.run] in place of
   [Pipeline.compile] (which is its first component) for the per-pass
   clock and IR census. *)
let traced_step ~seed tally index =
  let acc = ref ([], [], []) and words = ref 0.0 in
  let specs = List.map (fun (name, build) -> (name, build ())) zoo in
  let (), total_s =
    Harness.time (fun () ->
        List.iteri
          (fun m (name, spec) ->
            let group = (index * 100) + m in
            Trace.with_span ~group ("zoo." ^ name) (fun () ->
                let ((prog, report), w), compile_s =
                  Harness.time (fun () ->
                      Trace.with_span ~group "compiler.compile" (fun () ->
                          let start = Harness.now () in
                          let r =
                            Harness.minor_words (fun () ->
                                Pass_manager.run ~seed config spec.Models.net)
                          in
                          ignore
                            (List.fold_left
                               (fun t (o : Pass_manager.outcome) ->
                                 let s = o.Pass_manager.seconds in
                                 ignore
                                   (Trace.add ~group
                                      ("compiler.pass." ^ o.Pass_manager.info.Pass.name)
                                      ~start:t ~stop:(t +. s));
                                 t +. s)
                               start (snd (fst r)).Pass_manager.outcomes);
                          r))
                in
                words := !words +. w;
                let exec, prepare_s =
                  Harness.time (fun () ->
                      Trace.with_span ~group "runtime.prepare" (fun () ->
                          Executor.prepare ~opts:(Harness.run_opts domains) prog))
                in
                let (), analyze_s =
                  Harness.time (fun () ->
                      Trace.with_span ~group "ir.analyze" (fun () ->
                          check_analysis tally name prog))
                in
                let per_model, passes, counts = !acc in
                let passes, counts =
                  List.fold_left
                    (fun (passes, counts) (o : Pass_manager.outcome) ->
                      let p = o.Pass_manager.info.Pass.name in
                      ( add_assoc p o.Pass_manager.seconds passes,
                        add_assoc ("compiler.ir_stmts." ^ p)
                          (float_of_int (Ir_stats.statements o.Pass_manager.stats))
                          counts ))
                    (passes, counts) report.Pass_manager.outcomes
                in
                let counts =
                  List.fold_left
                    (fun counts (k, n) -> add_assoc ("runtime.kernels." ^ k) (float_of_int n) counts)
                    counts (Executor.kernel_stats exec)
                in
                acc := ((name, (compile_s, prepare_s, analyze_s)) :: per_model, passes, counts)))
          specs)
  in
  let per_model, passes, counts = !acc in
  {
    total_s;
    per_model = List.rev per_model;
    pass_s = List.rev passes;
    words = !words;
    counts = List.sort compare counts;
  }

(* Seeded, non-zero inputs and labels for a model's data buffers. *)
let feed ~seed exec (spec : Models.spec) =
  let rng = Rng.create (seed + 0x200) in
  Tensor.fill_uniform rng (Executor.lookup exec (spec.Models.data_ens ^ ".value")) ~lo:0.05 ~hi:1.0;
  let labels = Executor.lookup exec spec.Models.label_buf in
  let classes = Tensor.numel (Executor.read_f32 exec (spec.Models.output_ens ^ ".value")) / batch in
  for i = 0 to Tensor.numel labels - 1 do
    Tensor.set1 labels i (float_of_int (Rng.int rng classes))
  done

(* The output ensemble and the ensembles feeding it: a softmax of
   near-zero logits is almost uniform, so its inputs are compared too. *)
let output_and_inputs (spec : Models.spec) =
  let net = spec.Models.net in
  spec.Models.output_ens
  :: List.map
       (fun c -> (Net.source_of net c).Ensemble.name)
       (Net.find net spec.Models.output_ens).Ensemble.connections

(* Every program's forward matches a [Config.unoptimized] compile of the
   same model and seed on the same inputs. *)
let gate ~seed tally execs =
  let worst = ref 0.0 in
  List.iter
    (fun (name, spec, exec) ->
      let build = List.assoc name zoo in
      let rspec = build () in
      let rexec =
        Executor.prepare ~opts:(Harness.run_opts 1)
          (Pipeline.compile ~seed Config.unoptimized rspec.Models.net)
      in
      Harness.attempt tally;
      feed ~seed exec spec;
      feed ~seed rexec rspec;
      Executor.forward exec;
      Executor.forward rexec;
      List.iter
        (fun buf ->
          let a = Executor.read_f32 exec buf and b = Executor.read_f32 rexec buf in
          let d = Tensor.max_abs_diff a b in
          worst := Float.max !worst d;
          Harness.fail_unless tally
            (Tensor.approx_equal ~tol:tolerance a b)
            (Printf.sprintf "compile-zoo %s: %s differs from the unoptimized compile by %g" name
               buf d))
        (spec.Models.loss_buf :: List.map (fun e -> e ^ ".value") (output_and_inputs spec)))
    execs;
  [
    ("gate", Printf.sprintf "forward of %d models vs unoptimized compile, tol %g" (List.length execs)
               tolerance);
    ("gate_max_abs_diff", Printf.sprintf "%g" !worst);
  ]

let run ~seed ~seconds ~trace : Harness.outcome =
  let tally = Harness.tally () in
  (* A set-up is everything before the first timed step: a full pass
     over the zoo, whose executors the gate then runs. *)
  let setup_times, execs =
    List.fold_left
      (fun (times, _) _ ->
        let (_, _, execs), dt = Harness.time (fun () -> step ~seed tally) in
        (dt :: times, execs))
      ([], []) (List.init Harness.early_setups Fun.id)
  in
  let notes = gate ~seed tally execs in
  let t_end = Harness.now () +. seconds in
  let min_steps = if trace then 2 else 1 in
  let rec loop i plain traced =
    if i >= min_steps && Harness.now () >= t_end then (List.rev plain, List.rev traced)
    else if trace && i mod 2 = 0 then loop (i + 1) plain (traced_step ~seed tally i :: traced)
    else
      let c, a, _ = step ~seed tally in
      loop (i + 1) ((c, a) :: plain) traced
  in
  let plain, traced = loop 0 [] [] in
  let late = List.init Harness.late_setups (fun _ -> snd (Harness.time (fun () -> step ~seed tally))) in
  let setup_times = setup_times @ late in
  let ms xs = List.map (fun s -> s *. 1e3) xs in
  let notes = notes @ [ ("steps", string_of_int (List.length plain + List.length traced)) ] in
  if not trace then
    {
      Harness.tally;
      metrics =
        Harness.end_to_end ~setup_times
          ~op_ms:(ms (List.map (fun (c, a) -> c +. a) plain))
          ~work_per_s:
            (Harness.metric "throughput_per_s" "1/s" ~samples:(List.length plain)
               (float_of_int (List.length zoo * List.length plain)
               /. List.fold_left (fun acc (c, a) -> acc +. c +. a) 0.0 plain));
      notes;
    }
  else begin
    Harness.check_repeat tally "compile-zoo"
      (List.map (fun t -> ("gc.minor_words.compile", t.words) :: t.counts) traced);
    let n = List.length traced and first = List.hd traced in
    let per_model pick prefix =
      List.map
        (fun (name, _) ->
          Harness.median_metric
            (Printf.sprintf "%s.%s" prefix (Harness.sanitize name))
            "ms"
            (ms (List.map (fun t -> pick (List.assoc name t.per_model)) traced)))
        zoo
    in
    let passes =
      List.map
        (fun (p, _) ->
          Harness.median_metric
            (Printf.sprintf "compiler.pass.%s_ms" p)
            "ms"
            (ms (List.map (fun t -> List.assoc p t.pass_s) traced)))
        first.pass_s
    in
    let counts =
      Harness.metric "gc.minor_words.compile" "words" ~samples:n first.words
      :: List.map (fun (name, v) -> Harness.count_metric name ~samples:n v) first.counts
    in
    let plain_total = Harness.median (List.map (fun (c, a) -> c +. a) plain) in
    let traced_total = Harness.median (List.map (fun t -> t.total_s) traced) in
    {
      Harness.tally;
      metrics =
        per_model (fun (c, _, _) -> c) "compiler.compile_ms"
        @ passes @ counts
        @ per_model (fun (_, p, _) -> p) "runtime.prepare_ms"
        @ per_model (fun (_, _, a) -> a) "ir.analyze_ms"
        @ [
            Harness.metric "trace.overhead_pct" "%" ~samples:(List.length plain + n)
              ((traced_total /. plain_total -. 1.0) *. 100.0);
          ];
      notes;
    }
  end
