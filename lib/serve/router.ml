type tenant = {
  name : string;
  weight : float;
  rate : float;
  burst : float;
  queue_cap : int;
  deadline : float;
}

type request = {
  id : int;
  tenant : string;
  model : string;
  features : float array;
  arrival : float;
  deadline : float;
}

type tstate = {
  cfg : tenant;
  queue : request Request_queue.t;
  mutable tokens : float;
  mutable refilled_at : float;
  mutable norm : float;  (* normalized service: work units / weight *)
}

type t = { order : string list; by_name : (string, tstate) Hashtbl.t }

let create tenants =
  if tenants = [] then invalid_arg "Router.create: no tenants";
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun cfg ->
      if Hashtbl.mem by_name cfg.name then
        invalid_arg (Printf.sprintf "Router.create: duplicate tenant %s" cfg.name);
      if cfg.weight <= 0.0 then
        invalid_arg
          (Printf.sprintf "Router.create: tenant %s weight %g <= 0" cfg.name
             cfg.weight);
      if cfg.rate <= 0.0 then
        invalid_arg
          (Printf.sprintf "Router.create: tenant %s rate %g <= 0" cfg.name cfg.rate);
      if cfg.burst < 1.0 then
        invalid_arg
          (Printf.sprintf "Router.create: tenant %s burst %g < 1" cfg.name
             cfg.burst);
      Hashtbl.replace by_name cfg.name
        { cfg; queue = Request_queue.create ~capacity:cfg.queue_cap;
          tokens = cfg.burst; refilled_at = 0.0; norm = 0.0 })
    tenants;
  { order = List.map (fun c -> c.name) tenants; by_name }

let tenant_names t = t.order

let find t name =
  match Hashtbl.find_opt t.by_name name with
  | Some ts -> ts
  | None ->
      invalid_arg
        (Printf.sprintf "Router: unknown tenant %s (tenants: %s)" name
           (String.concat ", " t.order))

let tenant t name = (find t name).cfg
let queue_length t name = Request_queue.length (find t name).queue

let total_queued t =
  List.fold_left (fun acc n -> acc + queue_length t n) 0 t.order


let refill ts ~now =
  if now > ts.refilled_at then begin
    ts.tokens <-
      Float.min ts.cfg.burst (ts.tokens +. ((now -. ts.refilled_at) *. ts.cfg.rate));
    ts.refilled_at <- now
  end

let busy_norms t ~except =
  Hashtbl.fold
    (fun name ts acc ->
      if name <> except && not (Request_queue.is_empty ts.queue) then
        match acc with
        | Some m -> Some (Float.min m ts.norm)
        | None -> Some ts.norm
      else acc)
    t.by_name None

let admit t ~now (r : request) =
  let ts = find t r.tenant in
  refill ts ~now;
  if ts.tokens < 1.0 then `Throttled
  else begin
    ts.tokens <- ts.tokens -. 1.0;
    let was_empty = Request_queue.is_empty ts.queue in
    if Request_queue.offer ts.queue r then begin
      (* A tenant waking from idle joins at the system virtual time so
         accumulated idleness is not bankable credit against the others
         (start-time fair queuing). *)
      if was_empty then
        (match busy_norms t ~except:r.tenant with
        | Some sys -> ts.norm <- Float.max ts.norm sys
        | None -> ());
      `Admitted
    end
    else `Shed
  end

let expire t ~now =
  List.concat_map
    (fun name ->
      Request_queue.reject (find t name).queue (fun r -> r.deadline < now))
    t.order

let oldest_wait t ~now =
  List.fold_left
    (fun acc name ->
      match Request_queue.peek (find t name).queue with
      | Some r ->
          let w = now -. r.arrival in
          Some (match acc with Some m -> Float.max m w | None -> w)
      | None -> acc)
    None t.order

(* Weighted-fair pick: among tenants with queued work, the smallest
   normalized service (ties broken by declaration order) goes first;
   its head request names the batch's model, and remaining slots are
   filled by re-applying the same rule restricted to tenants whose head
   is for that model — per-tenant FIFO order is never violated, so a
   tenant's head for another model blocks its later requests even when
   they would fit. Every dequeued request charges 1/weight. *)
let select t ~batch_of =
  let pick ~for_model =
    List.fold_left
      (fun acc name ->
        let ts = find t name in
        match Request_queue.peek ts.queue with
        | Some r
          when (match for_model with Some m -> r.model = m | None -> true) -> (
            match acc with
            | Some (best, _) when best.norm <= ts.norm -> acc
            | _ -> Some (ts, r))
        | _ -> acc)
      None t.order
  in
  match pick ~for_model:None with
  | None -> None
  | Some (_, head) ->
      let model = head.model in
      let cap = batch_of model in
      let rec fill acc k =
        if k >= cap then List.rev acc
        else
          match pick ~for_model:(Some model) with
          | None -> List.rev acc
          | Some (ts, _) ->
              let r = Option.get (Request_queue.pop ts.queue) in
              ts.norm <- ts.norm +. (1.0 /. ts.cfg.weight);
              fill (r :: acc) (k + 1)
      in
      Some (model, fill [] 0)

let norm t name = (find t name).norm
