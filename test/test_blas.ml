(* GEMM and BLAS kernel tests: the blocked kernels must agree with the
   triple-loop reference for every transpose combination, size and
   offset. *)

let buffer_of_array a =
  let t = Tensor.of_array (Shape.create [ Array.length a ]) a in
  Tensor.data t

let random_buf rng n = buffer_of_array (Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))

let buf_to_array b = Array.init (Bigarray.Array1.dim b) (Bigarray.Array1.get b)

let check_gemm ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k () =
  let rng = Rng.create (m + (31 * n) + (97 * k) + if transa then 7 else 0) in
  let a = random_buf rng (m * k) in
  let b = random_buf rng (k * n) in
  let c1 = random_buf rng (m * n) in
  let c2 = buffer_of_array (buf_to_array c1) in
  Blas.gemm ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~b ~c:c1 ();
  Blas.gemm_naive ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~b ~c:c2 ();
  let d = ref 0.0 in
  for i = 0 to (m * n) - 1 do
    d := Float.max !d (Float.abs (Bigarray.Array1.get c1 i -. Bigarray.Array1.get c2 i))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "gemm %c%c %dx%dx%d agrees (max diff %g)"
       (if transa then 'T' else 'N') (if transb then 'T' else 'N') m n k !d)
    true (!d < 1e-3)

let test_gemm_all_trans () =
  List.iter
    (fun (transa, transb) ->
      List.iter
        (fun (m, n, k) -> check_gemm ~transa ~transb ~m ~n ~k ())
        [ (1, 1, 1); (3, 4, 5); (8, 8, 8); (17, 13, 9); (32, 1, 64); (1, 32, 64) ])
    [ (false, false); (true, false); (false, true); (true, true) ]

let test_gemm_alpha_beta () =
  check_gemm ~alpha:2.5 ~beta:0.0 ~transa:false ~transb:false ~m:5 ~n:6 ~k:7 ();
  check_gemm ~alpha:(-1.0) ~beta:3.0 ~transa:true ~transb:false ~m:5 ~n:6 ~k:7 ()

let test_gemm_offsets () =
  let rng = Rng.create 42 in
  let m = 4 and n = 3 and k = 5 in
  let pad = 11 in
  let a = random_buf rng ((m * k) + pad) in
  let b = random_buf rng ((k * n) + pad) in
  let c1 = random_buf rng ((m * n) + pad) in
  let c2 = buffer_of_array (buf_to_array c1) in
  Blas.gemm ~transa:false ~transb:false ~m ~n ~k ~a ~off_a:pad ~b ~off_b:pad ~c:c1
    ~off_c:pad ();
  Blas.gemm_naive ~transa:false ~transb:false ~m ~n ~k ~a ~off_a:pad ~b ~off_b:pad
    ~c:c2 ~off_c:pad ();
  for i = 0 to (m * n) + pad - 1 do
    Alcotest.(check (float 1e-4)) "offset gemm"
      (Bigarray.Array1.get c2 i) (Bigarray.Array1.get c1 i)
  done

let test_gemm_beta_zero_clears () =
  (* beta = 0 must overwrite garbage, including NaN. *)
  let a = buffer_of_array [| 1.0 |] in
  let b = buffer_of_array [| 2.0 |] in
  let c = buffer_of_array [| Float.nan |] in
  Blas.gemm ~beta:0.0 ~transa:false ~transb:false ~m:1 ~n:1 ~k:1 ~a ~b ~c ();
  Alcotest.(check (float 1e-6)) "cleared" 2.0 (Bigarray.Array1.get c 0)

let test_gemv () =
  let rng = Rng.create 5 in
  let m = 6 and n = 4 in
  let a = random_buf rng (m * n) in
  let x = random_buf rng n in
  let y = buffer_of_array (Array.make m 0.0) in
  Blas.gemv ~transa:false ~m ~n ~a ~x ~y;
  (* Reference via gemm with n=1. *)
  let y2 = buffer_of_array (Array.make m 0.0) in
  Blas.gemm_naive ~transa:false ~transb:false ~m ~n:1 ~k:n ~a ~b:x ~c:y2 ();
  for i = 0 to m - 1 do
    Alcotest.(check (float 1e-4)) "gemv" (Bigarray.Array1.get y2 i)
      (Bigarray.Array1.get y i)
  done

let test_axpy_dot_scal () =
  let x = buffer_of_array [| 1.0; 2.0; 3.0 |] in
  let y = buffer_of_array [| 1.0; 1.0; 1.0 |] in
  Blas.axpy ~alpha:2.0 ~n:3 ~x ~y;
  Alcotest.(check (float 1e-6)) "axpy" 7.0 (Bigarray.Array1.get y 2);
  Alcotest.(check (float 1e-4)) "dot" 34.0 (Blas.dot ~n:3 ~x ~y);
  Blas.scal ~alpha:0.5 ~n:3 ~x;
  Alcotest.(check (float 1e-6)) "scal" 1.5 (Bigarray.Array1.get x 2)

let test_flops () =
  Alcotest.(check (float 0.0)) "2mnk" 24.0 (Blas.gemm_flops ~m:2 ~n:2 ~k:3)

(* ---- The sparse-path contract (blas.mli) ---- *)

(* Bitwise float equality, with every NaN equal to every other. *)
let same_bits x y =
  (Float.is_nan x && Float.is_nan y)
  || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* What "equal on finite data" means across orderings: NN and TN round
   their running sum to f32 at every term where the naive loop
   accumulates in double, so finite results agree to f32 rounding (and
   in sign); non-finite results agree exactly. *)
let agrees x y =
  if Float.is_finite x && Float.is_finite y then
    Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.abs y)
    && Float.sign_bit x = Float.sign_bit y
  else same_bits x y

(* Pack a logical rows x cols matrix, transposed when [trans]. *)
let pack ~trans mat =
  let rows = Array.length mat and cols = Array.length mat.(0) in
  buffer_of_array
    (Array.init (rows * cols) (fun f ->
         if trans then mat.(f mod rows).(f / rows) else mat.(f / cols).(f mod cols)))

let all_trans = [ (false, false); (true, false); (false, true); (true, true) ]

let trans_name (transa, transb) =
  Printf.sprintf "%c%c" (if transa then 'T' else 'N') (if transb then 'T' else 'N')

(* Runs gemm and gemm_naive with alpha = 1, beta = 0 on logical
   operands [al] (m x k) and [bl] (k x n). *)
let gemm_pair (transa, transb) al bl =
  let m = Array.length al and k = Array.length bl and n = Array.length bl.(0) in
  let a = pack ~trans:transa al and b = pack ~trans:transb bl in
  let fresh () = buffer_of_array (Array.make (m * n) 0.0) in
  let c = fresh () and c_ref = fresh () in
  Blas.gemm ~beta:0.0 ~transa ~transb ~m ~n ~k ~a ~b ~c ();
  Blas.gemm_naive ~beta:0.0 ~transa ~transb ~m ~n ~k ~a ~b ~c:c_ref ();
  (c, c_ref)

let test_gemm_finite_signed_zeros () =
  (* -0 and +0 in both operands, including an all-zero row of A: on
     finite data every ordering agrees with the naive loop, NT and TT
     bit for bit. *)
  let rng = Rng.create 3 in
  let m = 4 and n = 6 and k = 7 in
  let al = Array.init m (fun _ -> Array.init k (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)) in
  let bl = Array.init k (fun _ -> Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)) in
  al.(0).(2) <- -0.0;
  al.(1).(4) <- 0.0;
  al.(3) <- Array.init k (fun p -> if p mod 2 = 0 then -0.0 else 0.0);
  bl.(1).(3) <- -0.0;
  bl.(5) <- Array.make n (-0.0);
  List.iter
    (fun tr ->
      let c, c_ref = gemm_pair tr al bl in
      let exact = snd tr in
      for f = 0 to (m * n) - 1 do
        let x = Bigarray.Array1.get c f and y = Bigarray.Array1.get c_ref f in
        if not (if exact then same_bits x y else agrees x y) then
          Alcotest.failf "gemm %s element %d: %h, naive %h" (trans_name tr) f x y
      done;
      for j = 0 to n - 1 do
        Alcotest.(check bool) "all-zero row of A gives +0" true
          (same_bits (Bigarray.Array1.get c ((3 * n) + j)) 0.0)
      done)
    all_trans

let test_gemm_nonfinite_contract () =
  (* Zero multipliers (+0 and -0) in A meet NaN/Inf in B. NN and TN skip
     the zero's B row: C keeps the sum of the other terms where the naive
     loop gives NaN, and nowhere else do the two differ. NT and TT form
     every product and equal the naive loop everywhere. *)
  let rng = Rng.create 11 in
  let m = 3 and n = 4 and k = 5 in
  let al = Array.init m (fun _ -> Array.init k (fun _ -> Rng.uniform rng ~lo:0.5 ~hi:1.5)) in
  let bl = Array.init k (fun _ -> Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)) in
  al.(0).(1) <- 0.0;
  al.(1).(3) <- -0.0;
  al.(2).(1) <- 0.0;
  al.(2).(3) <- -0.0;
  bl.(1).(0) <- Float.nan;
  bl.(1).(2) <- Float.infinity;
  bl.(3).(1) <- Float.neg_infinity;
  bl.(3).(3) <- Float.nan;
  (* Where a zero of A meets a non-finite element of B. *)
  let zero_times_nonfinite i j =
    List.exists
      (fun p -> al.(i).(p) = 0.0 && not (Float.is_finite bl.(p).(j)))
      (List.init k Fun.id)
  in
  (* Every non-finite element of B meets only zeros in the differing
     cells, so there C must hold exactly what it holds when those
     elements are replaced by any finite value. *)
  let bl_finite =
    Array.map (Array.map (fun v -> if Float.is_finite v then v else 0.0)) bl
  in
  let differing = ref [] in
  for i = m - 1 downto 0 do
    for j = n - 1 downto 0 do
      if zero_times_nonfinite i j then differing := (i, j) :: !differing
    done
  done;
  Alcotest.(check (list (pair int int)))
    "cells where 0 meets NaN/Inf"
    [ (0, 0); (0, 2); (1, 1); (1, 3); (2, 0); (2, 1); (2, 2); (2, 3) ]
    !differing;
  List.iter
    (fun ((_, transb) as tr) ->
      let sparse = not transb in
      let c, c_ref = gemm_pair tr al bl in
      let c_fin, _ = gemm_pair tr al bl_finite in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let x = Bigarray.Array1.get c ((i * n) + j)
          and y = Bigarray.Array1.get c_ref ((i * n) + j)
          and z = Bigarray.Array1.get c_fin ((i * n) + j) in
          let where = Printf.sprintf "gemm %s C[%d,%d]" (trans_name tr) i j in
          if sparse && zero_times_nonfinite i j then begin
            Alcotest.(check bool) (where ^ ": naive is NaN") true (Float.is_nan y);
            Alcotest.(check bool) (where ^ ": skipped, finite") true (Float.is_finite x);
            Alcotest.(check bool) (where ^ ": the other terms' value") true
              (same_bits x z)
          end
          else if not (agrees x y) then
            Alcotest.failf "%s: %h, naive %h" where x y
        done
      done)
    all_trans

let test_gemv_sparse_contract () =
  (* gemv with [transa] skips the A row of a zero x element; without
     it, every product is formed. A is 3 x 2, row 1 holds NaN and Inf. *)
  let a = buffer_of_array [| 1.0; 2.0; Float.nan; Float.infinity; 3.0; 4.0 |] in
  let x = buffer_of_array [| 1.0; 0.0; 1.0 |] in
  let y = buffer_of_array [| 0.0; 0.0 |] in
  Blas.gemv ~transa:true ~m:3 ~n:2 ~a ~x ~y;
  Alcotest.(check (array (float 0.0))) "row 1 skipped" [| 4.0; 6.0 |] (buf_to_array y);
  let y_ref = buffer_of_array [| 0.0; 0.0 |] in
  Blas.gemm_naive ~transa:true ~transb:false ~m:2 ~n:1 ~k:3 ~a ~b:x ~c:y_ref ();
  Alcotest.(check bool) "naive: 0 * NaN" true (Float.is_nan (Bigarray.Array1.get y_ref 0));
  Alcotest.(check bool) "naive: 0 * Inf" true (Float.is_nan (Bigarray.Array1.get y_ref 1));
  let x2 = buffer_of_array [| 1.0; 0.0 |] and y2 = buffer_of_array [| 0.0; 0.0; 0.0 |] in
  Blas.gemv ~transa:false ~m:3 ~n:2 ~a ~x:x2 ~y:y2;
  Alcotest.(check bool) "no skip without transa" true
    (Float.is_nan (Bigarray.Array1.get y2 1))

(* ---- Row ranges ---- *)

(* Calls [Blas.gemm_rows] over each range of [ranges] (in the order
   given) and [Blas.gemm] once, on copies of the same C, and requires
   the same bits in every cell. *)
let check_rows ~alpha ~beta tr ~m ~n ~k ~a ~b ~c0 ranges =
  let transa, transb = tr in
  let copy () = buffer_of_array (buf_to_array c0) in
  let whole = copy () and split = copy () in
  Blas.gemm ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~b ~c:whole ();
  List.iter
    (fun (lo, hi) ->
      Blas.gemm_rows ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a:0 ~b
        ~off_b:0 ~c:split ~off_c:0 ~lo ~hi)
    ranges;
  for f = 0 to (m * n) - 1 do
    let x = Bigarray.Array1.get split f and y = Bigarray.Array1.get whole f in
    if not (same_bits x y) then
      Alcotest.failf "gemm_rows %s m=%d alpha=%g beta=%g C[%d,%d]: %h, whole %h"
        (trans_name tr) m alpha beta (f / n) (f mod n) x y
  done

let test_gemm_rows_union () =
  (* Uneven blocks, an empty range and out-of-order calls, for m = 7,
     and m = 1. op(A) has an all-zero row and scattered signed zeros
     meeting NaN and infinities in op(B), so the sparse path's skips and
     the non-finite cell contract both take part; C starts with NaN
     in a cell that beta = 0 must clear. *)
  let rng = Rng.create 21 in
  List.iter
    (fun (m, ranges) ->
      let n = 5 and k = 6 in
      let al =
        Array.init m (fun _ -> Array.init k (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
      in
      let bl =
        Array.init k (fun _ -> Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
      in
      al.(0).(1) <- 0.0;
      if m > 3 then begin
        al.(2) <- Array.make k 0.0;
        al.(3).(4) <- -0.0;
        al.(5).(1) <- -0.0
      end;
      bl.(1).(0) <- Float.nan;
      bl.(4).(2) <- Float.infinity;
      bl.(1).(3) <- Float.neg_infinity;
      let c0 = random_buf rng (m * n) in
      Bigarray.Array1.set c0 (n - 1) Float.nan;
      List.iter
        (fun tr ->
          let a = pack ~trans:(fst tr) al and b = pack ~trans:(snd tr) bl in
          List.iter
            (fun alpha ->
              List.iter
                (fun beta -> check_rows ~alpha ~beta tr ~m ~n ~k ~a ~b ~c0 ranges)
                [ 0.0; 1.0; 0.5 ])
            [ 1.0; 0.5 ])
        all_trans)
    [
      (7, [ (0, 2); (2, 2); (2, 5); (5, 7) ]);
      (7, [ (5, 7); (0, 3); (3, 5) ]);
      (1, [ (0, 0); (0, 1); (1, 1) ]);
    ];
  let z = buffer_of_array [| 0.0 |] in
  List.iter
    (fun (lo, hi) ->
      match
        Blas.gemm_rows ~alpha:1.0 ~beta:1.0 ~transa:false ~transb:false ~m:1
          ~n:1 ~k:1 ~a:z ~off_a:0 ~b:z ~off_b:0 ~c:z ~off_c:0 ~lo ~hi
      with
      | () -> Alcotest.failf "rows [%d, %d) of m=1 accepted" lo hi
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, 2); (1, 0) ]

(* ---- Allocation ---- *)

(* Minor-heap words [f] allocates, net of the measurement itself. *)
let minor_words f =
  let measure g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  f ();
  measure f -. measure ignore

let test_kernels_allocation_free () =
  (* Small non-zero shapes that reach both the unrolled loops and their
     remainders. A boxed element access costs words per element, so any
     polymorphic access reappearing in a kernel shows up here. *)
  let rng = Rng.create 9 in
  let m = 5 and n = 7 and k = 9 in
  let a = random_buf rng (m * k) and b = random_buf rng (k * n) in
  let c = random_buf rng (m * n) in
  let check name f =
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 (minor_words f)
  in
  List.iter
    (fun ((transa, transb) as tr) ->
      check ("gemm " ^ trans_name tr) (fun () ->
          Blas.gemm ~alpha:0.5 ~beta:0.25 ~transa ~transb ~m ~n ~k ~a ~b ~c ()))
    all_trans;
  check "gemm_rows TN" (fun () ->
      Blas.gemm_rows ~alpha:0.5 ~beta:0.25 ~transa:true ~transb:false ~m ~n ~k
        ~a ~off_a:0 ~b ~off_b:0 ~c ~off_c:0 ~lo:1 ~hi:4);
  let x = random_buf rng k and y = random_buf rng m in
  check "gemv N" (fun () -> Blas.gemv ~transa:false ~m ~n:k ~a ~x ~y);
  check "gemv T" (fun () -> Blas.gemv ~transa:true ~m ~n:k ~a ~x:y ~y:x);
  check "axpy" (fun () -> Blas.axpy ~alpha:0.5 ~n:k ~x ~y:b);
  (* [dot] returns its float boxed across the module boundary under the
     default (opaque) dev build; its loop must add nothing to that box. *)
  let boxed_float = float_of_int (1 + Obj.size (Obj.repr (Sys.opaque_identity 0.5))) in
  Alcotest.(check (float 0.0)) "dot allocates only its boxed result" boxed_float
    (minor_words (fun () -> ignore (Blas.dot ~n:k ~x ~y:b : float)));
  check "scal" (fun () -> Blas.scal ~alpha:1.0 ~n:k ~x);
  let shape r cols = Shape.create [ r; cols ] in
  let f32 r cols buf = Tensor.store_of_f32 (Tensor.of_buffer buf (shape r cols)) in
  let i8 r cols buf =
    let t = Tensor.of_buffer buf (shape r cols) in
    let st =
      Tensor.store_create
        ~qparams:(Precision.qparams_of_absmax 1.0)
        (Precision.Any Precision.I8) (shape r cols)
    in
    Tensor.store_blit_from_f32 ~src:t ~dst:st;
    st
  in
  let sa = f32 m k a and sb = f32 k n b and sc = f32 m n c in
  let qa = i8 m k a and qb = i8 k n b in
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check string) "kernel" name (Qblas.kernel_name a b sc);
      check name (fun () ->
          Qblas.gemm ~beta:0.5 ~transa:false ~transb:false ~m ~n ~k ~a ~b ~c:sc ()))
    [ ("gemm_i8i8", qa, qb); ("gemm_f32i8", sa, qb); ("gemm_i8f32", qa, sb) ]

let size_gen = QCheck.Gen.int_range 1 24

let prop_gemm_random =
  QCheck.Test.make ~count:60 ~name:"blocked gemm = naive gemm (random sizes)"
    (QCheck.make
       QCheck.Gen.(
         tup5 size_gen size_gen size_gen bool bool))
    (fun (m, n, k, transa, transb) ->
      let rng = Rng.create ((m * 1000) + (n * 100) + k) in
      let a = random_buf rng (m * k) in
      let b = random_buf rng (k * n) in
      let c1 = random_buf rng (m * n) in
      let c2 = buffer_of_array (buf_to_array c1) in
      Blas.gemm ~transa ~transb ~m ~n ~k ~a ~b ~c:c1 ();
      Blas.gemm_naive ~transa ~transb ~m ~n ~k ~a ~b ~c:c2 ();
      let ok = ref true in
      for i = 0 to (m * n) - 1 do
        if Float.abs (Bigarray.Array1.get c1 i -. Bigarray.Array1.get c2 i) > 1e-3
        then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "gemm all transposes" `Quick test_gemm_all_trans;
    Alcotest.test_case "gemm alpha/beta" `Quick test_gemm_alpha_beta;
    Alcotest.test_case "gemm offsets" `Quick test_gemm_offsets;
    Alcotest.test_case "gemm beta=0 clears" `Quick test_gemm_beta_zero_clears;
    Alcotest.test_case "gemv" `Quick test_gemv;
    Alcotest.test_case "axpy/dot/scal" `Quick test_axpy_dot_scal;
    Alcotest.test_case "gemm_flops" `Quick test_flops;
    Alcotest.test_case "gemm finite and signed zeros = naive" `Quick
      test_gemm_finite_signed_zeros;
    Alcotest.test_case "gemm sparse path: 0 * NaN/Inf" `Quick
      test_gemm_nonfinite_contract;
    Alcotest.test_case "gemv sparse path: 0 * NaN/Inf" `Quick
      test_gemv_sparse_contract;
    Alcotest.test_case "gemm row ranges = whole gemm, bitwise" `Quick
      test_gemm_rows_union;
    Alcotest.test_case "kernels allocate nothing" `Quick
      test_kernels_allocation_free;
    QCheck_alcotest.to_alcotest prop_gemm_random;
  ]
