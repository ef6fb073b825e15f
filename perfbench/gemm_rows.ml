(* Kernel rows: the tensor layer's GEMMs timed at the shapes the
   workloads' own programs call them with.

   GFLOP/s uses [Blas.gemm_flops]. Bytes moved are computed from the
   shapes (A and B read once, C written once, at each operand's element
   width), not measured: the VM it was written on exposes no hardware
   memory counters. *)

type shape = { transa : bool; transb : bool; m : int; n : int; k : int }

let rec const = function
  | Ir.Iconst n -> Some n
  | Ir.Iadd (a, b) -> Option.bind (const a) (fun x -> Option.map (( + ) x) (const b))
  | Ir.Isub (a, b) -> Option.bind (const a) (fun x -> Option.map (( - ) x) (const b))
  | Ir.Imul (a, b) -> Option.bind (const a) (fun x -> Option.map (( * ) x) (const b))
  | _ -> None

let rec gemms acc = function
  | Ir.Gemm g -> g :: acc
  | Ir.For l -> List.fold_left gemms acc l.Ir.body
  | Ir.If (_, a, b) -> List.fold_left gemms (List.fold_left gemms acc a) b
  | _ -> acc

let section_gemms (s : Program.section) =
  List.rev (List.fold_left gemms [] s.Program.stmts)

let has_gemm s = section_gemms s <> []

(* Every GEMM call of the program whose dimensions are constants, with
   its operand buffer names. *)
let constant_gemms (prog : Program.t) =
  List.concat_map
    (fun (s : Program.section) ->
      List.filter_map
        (fun (g : Ir.gemm) ->
          match (const g.Ir.m, const g.Ir.n, const g.Ir.k) with
          | Some m, Some n, Some k ->
              Some ({ transa = g.Ir.transa; transb = g.Ir.transb; m; n; k }, g)
          | _ -> None)
        (section_gemms s))
    (prog.Program.forward @ prog.Program.backward)

let variant s =
  match (s.transa, s.transb) with
  | false, false -> "nn"
  | true, false -> "tn"
  | false, true -> "nt"
  | true, true -> "tt"

let flops s = Blas.gemm_flops ~m:s.m ~n:s.n ~k:s.k

(* The largest constant-dimension call of each variant. *)
let largest_per_variant prog =
  List.fold_left
    (fun acc (s, g) ->
      let v = variant s in
      match List.assoc_opt v acc with
      | Some (best, _) when flops best >= flops s -> acc
      | _ -> (v, (s, g)) :: List.remove_assoc v acc)
    [] (constant_gemms prog)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let describe s =
  Printf.sprintf "%s m=%d n=%d k=%d" (variant s) s.m s.n s.k

type row = {
  label : string;
  shape : shape;
  calls : int;
  seconds : float;  (** Median per call. *)
  gflops : float;
  computed_bytes : float;
}

let row label shape ~widths:(wa, wb, wc) times =
  let s = shape and seconds = Harness.median times in
  {
    label;
    shape;
    calls = List.length times;
    seconds;
    gflops = flops s /. seconds /. 1e9;
    computed_bytes =
      (wa *. float_of_int (s.m * s.k))
      +. (wb *. float_of_int (s.k * s.n))
      +. (wc *. float_of_int (s.m * s.n));
  }

(* GFLOP/s and computed GB/s of a row, under the given metric names. *)
let metrics ~gflops ~gbps r =
  [
    Harness.metric gflops "GFLOP/s" ~samples:r.calls r.gflops;
    Harness.metric gbps "GB/s" ~samples:r.calls (r.computed_bytes /. r.seconds /. 1e9);
  ]

let note r =
  Printf.sprintf "%s, %.3f ms/call, computed bytes %.0f" (describe r.shape)
    (r.seconds *. 1e3) r.computed_bytes

(* Seeded, dense, non-zero f32 operand. *)
let operand rng numel =
  let t = Tensor.create [| numel |] in
  Tensor.fill_uniform rng t ~lo:0.5 ~hi:1.5;
  t

let time_blas ?(zero_rows = false) rng s =
  let a = operand rng (s.m * s.k) and b = operand rng (s.k * s.n) in
  let c = Tensor.create [| s.m * s.n |] in
  if zero_rows then
    (* Every other row of op(A) is zero: exposes the kernels' skip of
       zero multipliers, which makes GEMM cost depend on the data. *)
    for i = 0 to s.m - 1 do
      if i mod 2 = 1 then
        for p = 0 to s.k - 1 do
          let ix = if s.transa then (p * s.m) + i else (i * s.k) + p in
          Tensor.set1 a ix 0.0
        done
    done;
  Harness.call_times ~min_reps:3 ~min_s:0.3 (fun () ->
      Blas.gemm ~beta:0.0 ~transa:s.transa ~transb:s.transb ~m:s.m ~n:s.n
        ~k:s.k ~a:(Tensor.data a) ~b:(Tensor.data b) ~c:(Tensor.data c) ())

(* [Blas.gemm] at each variant's largest constant shape in [prog], plus
   the NN shape again with half of A's rows zero. *)
let blas_rows ~seed prog =
  let rng = Rng.create (seed + 0x6e6d) in
  let dense =
    List.map
      (fun (v, (s, _)) -> row v s ~widths:(4.0, 4.0, 4.0) (time_blas rng s))
      (largest_per_variant prog)
  in
  let zero =
    match List.find_opt (fun r -> r.label = "nn") dense with
    | Some r ->
        [
          row "nn.zero_rows" r.shape ~widths:(4.0, 4.0, 4.0)
            (time_blas ~zero_rows:true rng r.shape);
        ]
    | None -> []
  in
  dense @ zero

(* A fresh store of [like]'s kind and quantization, holding seeded
   non-zero values. *)
let store_like rng like numel =
  let st =
    Tensor.store_create ~qparams:(Tensor.store_qparams like)
      (Tensor.store_kind like) [| numel |]
  in
  Tensor.store_blit_from_f32 ~src:(operand rng numel) ~dst:st;
  st

(* [Qblas.gemm] at the largest constant-dimension GEMM of [prog] (the
   quantized serving program), with operands of the program's own
   storage kinds and scales. *)
let qblas_row ~seed (prog : Program.t) =
  let rng = Rng.create (seed + 0x7162) in
  let pool = prog.Program.buffers in
  match
    List.sort
      (fun (a, _) (b, _) -> compare (flops b) (flops a))
      (constant_gemms prog)
  with
  | [] -> None
  | (s, g) :: _ ->
      let like name = Buffer_pool.store pool name in
      let a = store_like rng (like g.Ir.a) (s.m * s.k)
      and b = store_like rng (like g.Ir.b) (s.k * s.n)
      and c = store_like rng (like g.Ir.c) (s.m * s.n) in
      let times =
        Harness.call_times ~min_reps:5 ~min_s:0.3 (fun () ->
            Qblas.gemm ~beta:0.0 ~transa:s.transa ~transb:s.transb ~m:s.m
              ~n:s.n ~k:s.k ~a ~b ~c ())
      in
      let w st = float_of_int (Tensor.store_elem_bytes st) in
      Some
        ( Qblas.kernel_name a b c,
          row (variant s) s ~widths:(w a, w b, w c) times )
