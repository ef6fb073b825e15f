(* In-memory span recorder for the traced run.

   Spans are recorded only by the benchmark's own files, around its
   calls into the library layers. Each span has a name, a start, an end,
   the span that caused it and a group id shared by the spans of one
   training step, request or model. Nothing is written until [export]
   at the end of the run, as Chrome trace-event JSON. *)

type span = {
  id : int;
  name : string;
  group : int;
  parent : int;  (** -1 for a root span. *)
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_ : int list ref = ref [] (* ids of the spans entered, innermost first *)

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !open_ with id :: _ -> id | [] -> -1

(* A span that has already happened, under [parent] (default: the span
   currently open); its id. *)
let add ?parent ~group name ~start ~stop =
  if not !enabled then -1
  else begin
    let parent = Option.value parent ~default:(current ()) in
    let id = fresh () in
    spans := { id; name; group; parent; start; stop } :: !spans;
    id
  end

(* [with_span ~group name f] records [f ()] as a span; a no-op wrapper
   when tracing is off. *)
let with_span ~group name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = current () in
    open_ := id :: !open_;
    let start = Harness.now () in
    let finish () =
      open_ := List.tl !open_;
      spans :=
        { id; name; group; parent; start; stop = Harness.now () } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let all () = List.rev !spans

(* Self time per span name: each span's duration minus the time its
   direct children cover (children of one span are sequential). *)
let self_times () =
  let spans = all () in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    spans;
  let by_name = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let self =
        (s.stop -. s.start)
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      match Hashtbl.find_opt by_name s.name with
      | Some (n, total, self_total) ->
          Hashtbl.replace by_name s.name (n + 1, total +. (s.stop -. s.start), self_total +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace by_name s.name (1, s.stop -. s.start, self))
    spans;
  List.rev_map
    (fun name ->
      let n, total, self = Hashtbl.find by_name name in
      (name, n, total, self))
    !order

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span). *)
let export path =
  let spans = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"group\":%d}}"
        (if i = 0 then "" else ",\n")
        (Harness.json_string s.name)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.group)
    spans;
  output_string oc "\n]}\n";
  close_out oc
