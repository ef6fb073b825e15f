type 'a t = { capacity : int; q : 'a Queue.t }

let create ~capacity =
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Request_queue.create: capacity %d <= 0" capacity);
  { capacity; q = Queue.create () }

let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q

let offer t x =
  if Queue.length t.q >= t.capacity then false
  else begin
    Queue.add x t.q;
    true
  end

let pop t = Queue.take_opt t.q
let peek t = Queue.peek_opt t.q
let reject t p =
  let keep, out = List.partition (fun x -> not (p x)) (List.of_seq (Queue.to_seq t.q)) in
  if out <> [] then begin
    Queue.clear t.q;
    List.iter (fun x -> Queue.add x t.q) keep
  end;
  out

