(* The repository benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds from inputs generated from N,
   checks its outputs, prints every metric with its unit and sample
   count, writes a run record (and, traced, a Chrome trace) under
   _perfbench/, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. The metrics are exactly
   the end-to-end ones of metrics.ml untraced and its per-layer ones
   traced. Exits 1 when a correctness gate failed or BENCHMARK.json does
   not list the metrics of metrics.ml, 2 on a usage error. *)

let workloads =
  [
    ("train-lenet", Train_lenet.run);
    ("serve-light", Serve_mlp.run ~name:"serve-light" ~rate:Serve_mlp.light_rps);
    ("serve-heavy", Serve_mlp.run ~name:"serve-heavy" ~rate:Serve_mlp.heavy_rps);
    ("compile-zoo", Compile_zoo.run);
  ]

let out_dir = "_perfbench"

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_record path ~provenance (o : Harness.outcome) =
  let oc = open_out path in
  let str = Harness.json_string in
  let fields kvs =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (str k) (str v)) kvs)
  in
  Printf.fprintf oc "{\"provenance\": {%s},\n" (fields provenance);
  Printf.fprintf oc " \"attempted\": %d, \"failed\": %d,\n" o.Harness.tally.Harness.attempted
    o.Harness.tally.Harness.failed;
  Printf.fprintf oc " \"failures\": [%s],\n"
    (String.concat ", " (List.rev_map str o.Harness.tally.Harness.why));
  Printf.fprintf oc " \"notes\": {%s},\n" (fields o.Harness.notes);
  output_string oc " \"metrics\": [\n";
  List.iteri
    (fun i (m : Harness.metric) ->
      Printf.fprintf oc "%s  {\"name\": %s, \"value\": %s, \"unit\": %s, \"samples\": %d}"
        (if i = 0 then "" else ",\n")
        (str m.Harness.name) (json_number m.Harness.value) (str m.Harness.unit_)
        m.Harness.samples)
    o.Harness.metrics;
  output_string oc "\n]}\n";
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       " " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let fail msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> fail ("unexpected argument " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds <= 0.0 then fail "--seconds must be positive";
  (match Metrics.check_manifest "BENCHMARK.json" with
   | Ok () -> ()
   | Error msg ->
       prerr_endline ("perfbench: " ^ msg);
       exit 1);
  Harness.disable_tune_cache ();
  let traced = !trace = 1 in
  Trace.enabled := traced;
  let o = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let o =
    if traced then o
    else
      {
        o with
        Harness.metrics =
          o.Harness.metrics
          @ [ Harness.metric "peak_rss_mb" "MB" ~samples:1 (Harness.peak_rss_mb ()) ];
      }
  in
  let o = Metrics.select ~traced o in
  List.iter
    (fun (m : Harness.metric) ->
      Harness.fail_unless o.Harness.tally (Float.is_finite m.Harness.value)
        (Printf.sprintf "metric %s is not a finite number" m.Harness.name))
    o.Harness.metrics;
  let provenance = Harness.provenance ~workload:!workload ~seed:!seed ~trace:traced in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) provenance;
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) o.Harness.notes;
  if traced then begin
    Printf.printf "# %-52s %6s %12s %12s\n" "span (self time = span - children)" "count"
      "total_ms" "self_ms";
    List.iter
      (fun (name, n, total, self) ->
        Printf.printf "# %-52s %6d %12.3f %12.3f\n" name n (total *. 1e3) (self *. 1e3))
      (Trace.self_times ())
  end;
  Printf.printf "%-56s %16s %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (m : Harness.metric) ->
      Printf.printf "%-56s %16.6g %-8s %d\n" m.Harness.name m.Harness.value m.Harness.unit_
        m.Harness.samples)
    o.Harness.metrics;
  let t = o.Harness.tally in
  Printf.printf "attempted %d, failed %d\n" t.Harness.attempted t.Harness.failed;
  List.iter (fun w -> Printf.printf "FAILED: %s\n" w) (List.rev t.Harness.why);
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let stem = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir !workload !seed !trace in
     write_record (stem ^ ".json") ~provenance o;
     if traced then Trace.export (stem ^ ".trace.json")
   with Sys_error msg -> Printf.eprintf "could not write the run record: %s\n" msg);
  let correct = t.Harness.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct t.Harness.attempted t.Harness.failed
    (String.concat ", "
       (List.map
          (fun (m : Harness.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Harness.json_string m.Harness.name)
              (json_number m.Harness.value) (Harness.json_string m.Harness.unit_))
          o.Harness.metrics));
  exit (if correct then 0 else 1)
