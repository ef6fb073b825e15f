(* The metrics a run prints, by name and unit: the end-to-end ones
   untraced and the per-layer ones traced. BENCHMARK.json lists the same
   names with the same units in the same order; [check_manifest] holds
   the two together.

   Every workload reports every end-to-end metric, over its own kind of
   operation. The per-layer metrics are the union over the workloads; a
   workload that does not run a layer prints that layer's metrics as 0
   with 0 samples (README.md says which workload runs which layer). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("throughput_per_s", "1/s");
  ]

let per_layer =
  [
    ("tensor.gemm_gflops.nn", "GFLOP/s");
    ("tensor.gemm_computed_gbps.nn", "GB/s");
    ("tensor.gemm_gflops.nt", "GFLOP/s");
    ("tensor.gemm_computed_gbps.nt", "GB/s");
    ("tensor.gemm_gflops.tn", "GFLOP/s");
    ("tensor.gemm_computed_gbps.tn", "GB/s");
    ("tensor.gemm_gflops.nn.zero_rows", "GFLOP/s");
    ("tensor.gemm_computed_gbps.nn.zero_rows", "GB/s");
    ("runtime.forward_ms", "ms");
    ("runtime.backward_ms", "ms");
    ("runtime.forward.gemm_sections_ms", "ms");
    ("runtime.forward.loop_sections_ms", "ms");
    ("runtime.backward.gemm_sections_ms", "ms");
    ("runtime.backward.loop_sections_ms", "ms");
    ("runtime.section.forward.conv1-pool1.ms", "ms");
    ("runtime.section.forward.conv1-pool1.gflops", "GFLOP/s");
    ("runtime.section.forward.conv2-pool2.ms", "ms");
    ("runtime.section.forward.conv2-pool2.gflops", "GFLOP/s");
    ("runtime.section.forward.ip1.batch-gemm.ms", "ms");
    ("runtime.section.forward.ip1.batch-gemm.gflops", "GFLOP/s");
    ("runtime.section.backward.ip1.batch-gemm.ms", "ms");
    ("runtime.section.backward.ip1.batch-gemm.gflops", "GFLOP/s");
    ("runtime.section.backward.ip1.batch-gemm.2.ms", "ms");
    ("runtime.section.backward.ip1.batch-gemm.2.gflops", "GFLOP/s");
    ("runtime.section.backward.pool2-conv2.ms", "ms");
    ("runtime.section.backward.pool2-conv2.gflops", "GFLOP/s");
    ("runtime.section.backward.pool1-conv1.ms", "ms");
    ("runtime.section.backward.pool1-conv1.gflops", "GFLOP/s");
    ("runtime.kernels.acc_add", "count");
    ("runtime.kernels.acc_max", "count");
    ("runtime.kernels.copy_guarded", "count");
    ("runtime.kernels.copy_strided", "count");
    ("runtime.kernels.fill", "count");
    ("runtime.kernels.generic", "count");
    ("runtime.kernels.par_fallback", "count");
    ("runtime.kernels.par_loop", "count");
    ("runtime.kernels.par_replay", "count");
    ("runtime.kernels.relu", "count");
    ("runtime.parallel_loops", "count");
    ("runtime.replayed_buffers", "count");
    ("runtime.respawns", "count");
    ("gc.minor_words.forward", "words");
    ("gc.minor_words.backward", "words");
    ("gc.minor_words.update", "words");
    ("nn.solver_update_ms", "ms");
    ("data.fill_batch_ms", "ms");
    ("trace.overhead_pct", "%");
    ("tensor.qgemm_gflops", "GFLOP/s");
    ("tensor.qgemm_computed_gbps", "GB/s");
    ("gc.minor_words.pump", "words");
    ("serve.forward_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.pump_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("serve.batch_fill", "ratio");
    ("serve.generator_lag_ms", "ms");
    ("serve.degraded", "count");
    ("compiler.compile_ms.mlp", "ms");
    ("compiler.compile_ms.lenet", "ms");
    ("compiler.compile_ms.vgg-block", "ms");
    ("compiler.compile_ms.alexnet", "ms");
    ("compiler.compile_ms.vgg", "ms");
    ("compiler.compile_ms.overfeat", "ms");
    ("compiler.compile_ms.resnet-tiny", "ms");
    ("compiler.pass.layout_ms", "ms");
    ("compiler.pass.synthesize_ms", "ms");
    ("compiler.pass.gemm_ms", "ms");
    ("compiler.pass.batch-gemm_ms", "ms");
    ("compiler.pass.fuse_ms", "ms");
    ("compiler.pass.tile_ms", "ms");
    ("compiler.pass.assemble_ms", "ms");
    ("compiler.pass.simplify_ms", "ms");
    ("compiler.pass.parallelize_ms", "ms");
    ("compiler.ir_stmts.assemble", "count");
    ("compiler.ir_stmts.batch-gemm", "count");
    ("compiler.ir_stmts.fuse", "count");
    ("compiler.ir_stmts.gemm", "count");
    ("compiler.ir_stmts.layout", "count");
    ("compiler.ir_stmts.parallelize", "count");
    ("compiler.ir_stmts.simplify", "count");
    ("compiler.ir_stmts.synthesize", "count");
    ("compiler.ir_stmts.tile", "count");
    ("gc.minor_words.compile", "words");
    ("runtime.kernels.fma", "count");
    ("runtime.kernels.zip", "count");
    ("runtime.prepare_ms.mlp", "ms");
    ("runtime.prepare_ms.lenet", "ms");
    ("runtime.prepare_ms.vgg-block", "ms");
    ("runtime.prepare_ms.alexnet", "ms");
    ("runtime.prepare_ms.vgg", "ms");
    ("runtime.prepare_ms.overfeat", "ms");
    ("runtime.prepare_ms.resnet-tiny", "ms");
    ("ir.analyze_ms.mlp", "ms");
    ("ir.analyze_ms.lenet", "ms");
    ("ir.analyze_ms.vgg-block", "ms");
    ("ir.analyze_ms.alexnet", "ms");
    ("ir.analyze_ms.vgg", "ms");
    ("ir.analyze_ms.overfeat", "ms");
    ("ir.analyze_ms.resnet-tiny", "ms");
  ]

(* The [(name, unit)] pairs listed under [key] in the manifest's text:
   the "name"/"unit" fields from [key] up to the next array key, or the
   end of the file. *)
let listed text key =
  let start =
    try Str.search_forward (Str.regexp_string (Printf.sprintf "%S:" key)) text 0
    with Not_found -> String.length text
  in
  let stop =
    try Str.search_forward (Str.regexp "\"[a-z_]+\": *\\[") text (start + 1)
    with Not_found -> String.length text
  in
  let entry = Str.regexp "\"name\": *\"\\([^\"]*\\)\"[^}]*\"unit\": *\"\\([^\"]*\\)\"" in
  let rec go pos acc =
    match Str.search_forward entry text pos with
    | exception Not_found -> List.rev acc
    | i when i >= stop -> List.rev acc
    | _ -> go (Str.match_end ()) ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
  in
  go start []

let check_manifest path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let same key ours =
        if listed text key = ours then Ok ()
        else Error (Printf.sprintf "%s: %s does not list the metrics of metrics.ml" path key)
      in
      Result.bind (same "end_to_end" end_to_end) (fun () -> same "per_layer" per_layer)

(* The outcome's metrics cut to the mode's list, in its order. A listed
   per-layer metric the workload did not report is 0 with 0 samples; a
   missing end-to-end metric or a unit that differs from the list is a
   failure. Reported metrics that are not listed (sections under 1% of
   a step) are named in the notes. *)
let select ~traced (o : Harness.outcome) =
  let listed = if traced then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Harness.metric) -> m.Harness.name = name) o.Harness.metrics with
        | Some m ->
            Harness.fail_unless o.Harness.tally (m.Harness.unit_ = unit_)
              (Printf.sprintf "metric %s is in %s, not %s" name m.Harness.unit_ unit_);
            m
        | None ->
            Harness.fail_unless o.Harness.tally traced
              (Printf.sprintf "end-to-end metric %s was not measured" name);
            Harness.metric name unit_ ~samples:0 0.0)
      listed
  in
  let unlisted =
    List.filter_map
      (fun (m : Harness.metric) ->
        if List.mem_assoc m.Harness.name listed then None else Some m.Harness.name)
      o.Harness.metrics
  in
  { o with Harness.metrics; notes = o.Harness.notes @ [ ("unlisted", String.concat " " unlisted) ] }
