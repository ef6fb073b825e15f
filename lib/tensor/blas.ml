open Tensor.Raw

type buffer = Tensor.buffer

let gemm_flops ~m ~n ~k = 2.0 *. float_of_int m *. float_of_int n *. float_of_int k

(* Scale rows [lo, hi) of the m x n matrix C by [beta]. *)
let scale_rows ~beta ~n ~c ~off_c ~lo ~hi =
  let first = off_c + (lo * n) and last = off_c + (hi * n) - 1 in
  if beta = 0.0 then
    for i = first to last do
      set_f32 c i 0.0
    done
  else if beta <> 1.0 then
    for i = first to last do
      set_f32 c i (beta *. get_f32 c i)
    done

(* The triple loop over rows [lo, hi) of C: the reference, and the TT
   kernel. *)
let naive_rows ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c
    ~off_c ~lo ~hi =
  scale_rows ~beta ~n ~c ~off_c ~lo ~hi;
  (* Strides of op(A)[i,p] and op(B)[p,j]. *)
  let as_i = if transa then 1 else k and as_p = if transa then m else 1 in
  let bs_p = if transb then 1 else n and bs_j = if transb then k else 1 in
  for i = lo to hi - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc :=
          !acc
          +. get_f32 a (off_a + (i * as_i) + (p * as_p))
             *. get_f32 b (off_b + (p * bs_p) + (j * bs_j))
      done;
      let ci = off_c + (i * n) + j in
      set_f32 c ci (get_f32 c ci +. (alpha *. !acc))
    done
  done

let gemm_naive ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k ~a
    ?(off_a = 0) ~b ?(off_b = 0) ~c ?(off_c = 0) () =
  naive_rows ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
    ~lo:0 ~hi:m

(* C[i,:] += s * B[row_b,:], the unrolled saxpy at the heart of the
   row-major ikj GEMM orderings. Inlined so the float [s] stays in a
   register instead of being boxed for every call. *)
let[@inline] saxpy_row ~n ~s ~b ~row_b ~c ~row_c =
  let j = ref 0 in
  while !j + 3 < n do
    let j0 = !j in
    set_f32 c (row_c + j0) (get_f32 c (row_c + j0) +. (s *. get_f32 b (row_b + j0)));
    set_f32 c (row_c + j0 + 1)
      (get_f32 c (row_c + j0 + 1) +. (s *. get_f32 b (row_b + j0 + 1)));
    set_f32 c (row_c + j0 + 2)
      (get_f32 c (row_c + j0 + 2) +. (s *. get_f32 b (row_b + j0 + 2)));
    set_f32 c (row_c + j0 + 3)
      (get_f32 c (row_c + j0 + 3) +. (s *. get_f32 b (row_b + j0 + 3)));
    j := j0 + 4
  done;
  while !j < n do
    set_f32 c (row_c + !j) (get_f32 c (row_c + !j) +. (s *. get_f32 b (row_b + !j)));
    incr j
  done

(* The sparse path of the saxpy orderings: a zero multiplier skips its
   whole B row, as reference BLAS xGEMM does. Pool and ReLU gradients
   are mostly zero, so backward GEMMs skip most of their rows. The
   product 0 * B[row_b,:] is never formed, so a NaN or infinity in a
   skipped row does not reach C (see blas.mli). *)
let[@inline] saxpy_row_sparse ~n ~s ~b ~row_b ~c ~row_c =
  if s <> 0.0 then saxpy_row ~n ~s ~b ~row_b ~c ~row_c

let gemm_nn ~alpha ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ~lo ~hi =
  (* ikj order: stream rows of B against each row of A. Block over k to
     keep the active slab of B in cache for large problems. *)
  let kb = 256 in
  let p0 = ref 0 in
  while !p0 < k do
    let p1 = min k (!p0 + kb) in
    for i = lo to hi - 1 do
      let row_a = off_a + (i * k) in
      let row_c = off_c + (i * n) in
      for p = !p0 to p1 - 1 do
        let s = alpha *. get_f32 a (row_a + p) in
        saxpy_row_sparse ~n ~s ~b ~row_b:(off_b + (p * n)) ~c ~row_c
      done
    done;
    p0 := p1
  done

let gemm_tn ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ~lo ~hi =
  (* A stored k x m; stream both A and B by rows of the shared k dim.
     The row stride of A is the whole call's [m], whatever the range. *)
  for p = 0 to k - 1 do
    let row_a = off_a + (p * m) in
    let row_b = off_b + (p * n) in
    for i = lo to hi - 1 do
      let s = alpha *. get_f32 a (row_a + i) in
      saxpy_row_sparse ~n ~s ~b ~row_b ~c ~row_c:(off_c + (i * n))
    done
  done

let gemm_nt ~alpha ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ~lo ~hi =
  (* B stored n x k: each C[i,j] is a dot of two contiguous rows. *)
  for i = lo to hi - 1 do
    let row_a = off_a + (i * k) in
    for j = 0 to n - 1 do
      let row_b = off_b + (j * k) in
      let acc = ref 0.0 in
      let p = ref 0 in
      while !p + 3 < k do
        let p0 = !p in
        acc :=
          !acc
          +. (get_f32 a (row_a + p0) *. get_f32 b (row_b + p0))
          +. (get_f32 a (row_a + p0 + 1) *. get_f32 b (row_b + p0 + 1))
          +. (get_f32 a (row_a + p0 + 2) *. get_f32 b (row_b + p0 + 2))
          +. (get_f32 a (row_a + p0 + 3) *. get_f32 b (row_b + p0 + 3));
        p := p0 + 4
      done;
      while !p < k do
        acc := !acc +. (get_f32 a (row_a + !p) *. get_f32 b (row_b + !p));
        incr p
      done;
      let ci = off_c + (i * n) + j in
      set_f32 c ci (get_f32 c ci +. (alpha *. !acc))
    done
  done

(* Every kernel walks each C[i,j]'s terms in the same p order whatever
   the row range, so a GEMM split into disjoint row ranges computes
   exactly the bits of the whole call. *)
let gemm_rows ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c
    ~off_c ~lo ~hi =
  if lo < 0 || hi > m || lo > hi then
    invalid_arg
      (Printf.sprintf "Blas.gemm_rows: rows [%d, %d) outside [0, %d)" lo hi m);
  scale_rows ~beta ~n ~c ~off_c ~lo ~hi;
  match (transa, transb) with
  | false, false -> gemm_nn ~alpha ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ~lo ~hi
  | true, false -> gemm_tn ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ~lo ~hi
  | false, true -> gemm_nt ~alpha ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ~lo ~hi
  | true, true ->
      naive_rows ~alpha ~beta:1.0 ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b
        ~c ~off_c ~lo ~hi

let gemm ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k ~a ?(off_a = 0)
    ~b ?(off_b = 0) ~c ?(off_c = 0) () =
  gemm_rows ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
    ~lo:0 ~hi:m

let gemv ~transa ~m ~n ~a ~x ~y =
  if transa then
    for i = 0 to m - 1 do
      saxpy_row_sparse ~n ~s:(get_f32 x i) ~b:a ~row_b:(i * n) ~c:y ~row_c:0
    done
  else
    for i = 0 to m - 1 do
      let acc = ref 0.0 in
      let row = i * n in
      for j = 0 to n - 1 do
        acc := !acc +. (get_f32 a (row + j) *. get_f32 x j)
      done;
      set_f32 y i (get_f32 y i +. !acc)
    done

let axpy ~alpha ~n ~x ~y =
  for i = 0 to n - 1 do
    set_f32 y i (get_f32 y i +. (alpha *. get_f32 x i))
  done

let dot ~n ~x ~y =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (get_f32 x i *. get_f32 y i)
  done;
  !acc

let scal ~alpha ~n ~x =
  for i = 0 to n - 1 do
    set_f32 x i (alpha *. get_f32 x i)
  done
