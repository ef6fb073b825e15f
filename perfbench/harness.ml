(* Shared pieces of the benchmark: pinned configurations, timing and
   order statistics, provenance, and the result record every workload
   returns. *)

let now = Unix.gettimeofday

(* Every compiler flag is written out, starting from the preset that
   reads nothing from the environment, so LATTE_DOMAINS and
   LATTE_PRECISION cannot change what is measured. *)
let config ~domains ~precision =
  Config.with_flags ~pattern_match:true ~tiling:true ~fusion:true
    ~parallelize:true ~tile_size:4 ~batch_gemm:true ~inplace_activation:true
    ~bounds_checks:true ~num_domains:domains ~precision Config.unoptimized

(* [auto_tune = false]: a tuning-cache entry may not raise the domain
   count behind the benchmark's back. *)
let run_opts domains =
  {
    Executor.Run_opts.safety = None;
    domains;
    warmup = 1;
    token = None;
    auto_tune = false;
  }

(* The tuning cache is consulted by [Pipeline.compile_pair] (and hence
   [Server.create]) through LATTE_TUNE_CACHE; a [latte tune] run left in
   the temp directory must not reach the measured programs. *)
let disable_tune_cache () = Unix.putenv "LATTE_TUNE_CACHE" "off"

(* [setup_s] is the median of set-ups timed on both sides of the
   measured loop: [early_setups] before it (the last one is measured)
   and [late_setups] after it (discarded), so one burst of noise from
   other tenants of the machine cannot move the median. *)
let early_setups = 5
let late_setups = 6

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation percentile, [p] in [0, 100]. *)
let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let r = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float r in
      let hi = min (n - 1) (lo + 1) in
      let w = r -. float_of_int lo in
      (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let median xs = percentile xs 50.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Run [f] repeatedly for at least [min_s] seconds and [min_reps] calls;
   the seconds of each call. *)
let call_times ~min_reps ~min_s f =
  let t_end = now () +. min_s in
  let rec go acc n =
    if n >= min_reps && now () >= t_end then acc
    else
      let (), dt = time f in
      go (dt :: acc) (n + 1)
  in
  go [] 0

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %f kB" (fun kb -> kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Section labels and model names become metric-name components. *)
let sanitize s =
  String.map (function '+' -> '-' | ':' -> '.' | c -> c) s

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (String.trim s)

(* The checked-out revision, read from .git without running git; a
   checkout that is not a git repository records "unknown". *)
let git_revision () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_) with
      | Some rev -> rev
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              let found =
                List.find_map
                  (fun line ->
                    match String.split_on_char ' ' line with
                    | [ rev; r ] when r = ref_ -> Some rev
                    | _ -> None)
                  (String.split_on_char '\n' packed)
              in
              Option.value ~default:"unknown" found))
  | Some rev -> rev

let provenance ~workload ~seed ~trace =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("trace", string_of_bool trace);
    ("machine_id", Tune_cache.machine_id ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("git_revision", git_revision ());
  ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** Observations the value summarizes. *)
}

let metric name unit_ ~samples value = { name; value; unit_; samples }

(* Summary of a list of observations: its median, with the sample count. *)
let median_metric name unit_ xs =
  metric name unit_ ~samples:(List.length xs) (median xs)

(* The end-to-end metrics every workload reports untraced, over its own
   kind of operation (a training step, a request, a pass over the zoo);
   [peak_rss_mb] is added for all of them by main.ml. [work_per_s] is
   the workload's [throughput_per_s] metric. *)
let end_to_end ~setup_times ~op_ms ~work_per_s =
  let samples = List.length op_ms in
  [
    median_metric "setup_s" "s" setup_times;
    metric "op_p50_ms" "ms" ~samples (percentile op_ms 50.0);
    metric "op_p90_ms" "ms" ~samples (percentile op_ms 90.0);
    work_per_s;
  ]

(* A deterministic count: its samples are the repetitions that agreed. *)
let count_metric name ~samples v = metric name "count" ~samples v

(* Failed-operation bookkeeping shared by the workloads. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable why : string list;  (** The first failures, newest first. *)
}

let tally () = { attempted = 0; failed = 0; why = [] }

type outcome = {
  tally : tally;
  metrics : metric list;
  notes : (string * string) list;
      (** Gate details and other facts for the run record. *)
}

(* A failure found by a later check of an operation already counted. *)
let fail_unless t ok what =
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.why < 20 then t.why <- what :: t.why
  end

let attempt t = t.attempted <- t.attempted + 1

let check t ok what =
  attempt t;
  fail_unless t ok what

(* The counters named exact-repeat must agree between repetitions from
   fresh, same-seed state; a disagreement is a failed operation. *)
let check_repeat t label (reps : (string * float) list list) =
  match reps with
  | [] | [ _ ] -> ()
  | first :: rest ->
      List.iter
        (fun r ->
          fail_unless t (r = first)
            (Printf.sprintf "%s counters differ between same-seed repetitions"
               label))
        rest
