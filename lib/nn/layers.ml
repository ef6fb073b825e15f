open Tensor.Raw

let out_dim ~size ~kernel ~stride ~pad = ((size + (2 * pad) - kernel) / stride) + 1

let data_layer net ~name ~shape =
  Net.add net (Ensemble.create ~name ~shape Ensemble.Data)

let fully_connected net ~name ~input:(src : Ensemble.t) ~n_outputs =
  let n_inputs = Ensemble.size src in
  let neuron =
    Neuron.weighted ~n_inputs ~varies_along:[ 0 ] ~fan_out:n_outputs
  in
  let fc =
    Net.add net (Ensemble.create ~name ~shape:[ n_outputs ] (Ensemble.Compute neuron))
  in
  Net.add_connections net ~source:src ~sink:fc
    (Mapping.all ~rank:(Shape.rank src.shape));
  fc

let require_hwc what (src : Ensemble.t) =
  if Shape.rank src.shape <> 3 then
    invalid_arg
      (Printf.sprintf "%s: input must have shape [h; w; c], got %s" what
         (Shape.to_string src.shape))

let concat_channels net ~name ~inputs =
  match inputs with
  | [] -> invalid_arg "Layers.concat_channels: no inputs"
  | [ only ] -> only
  | (first : Ensemble.t) :: _ ->
      let rank = Shape.rank first.shape in
      if rank < 1 then invalid_arg "Layers.concat_channels: rank >= 1 required";
      let lead = Array.sub first.shape 0 (rank - 1) in
      let total =
        List.fold_left
          (fun acc (e : Ensemble.t) ->
            if Shape.rank e.shape <> rank
               || not (Shape.equal (Array.sub e.shape 0 (rank - 1)) lead)
            then
              invalid_arg
                (Printf.sprintf "Layers.concat_channels %s: shape mismatch (%s)" name
                   (Shape.to_string e.shape));
            acc + e.shape.(rank - 1))
          0 inputs
      in
      let shape = Array.to_list lead @ [ total ] in
      let cat = Net.add net (Ensemble.create ~name ~shape Ensemble.Concat) in
      let mapping =
        Mapping.Structured
          (Array.init rank (fun d -> if d = rank - 1 then Mapping.All else Mapping.Eq d))
      in
      List.iter
        (fun src -> Net.add_connections net ~source:src ~sink:cat mapping)
        inputs;
      cat

let conv_single net ~name ~(src : Ensemble.t) ~n_filters ~kernel ~stride ~pad
    ~channel_slice =
  let h = src.shape.(0) and w = src.shape.(1) in
  let c = match channel_slice with Some (_, size) -> size | None -> src.shape.(2) in
  let oh = out_dim ~size:h ~kernel ~stride ~pad in
  let ow = out_dim ~size:w ~kernel ~stride ~pad in
  if oh <= 0 || ow <= 0 then
    invalid_arg (Printf.sprintf "Layers.convolution %s: empty output" name);
  let n_inputs = kernel * kernel * c in
  (* Filter weights are shared across the spatial dimensions: the field
     varies along the channel dimension (2) only — the aliasing the
     paper's shared-variable analysis exploits. *)
  let neuron =
    Neuron.weighted ~n_inputs ~varies_along:[ 2 ] ~fan_out:(kernel * kernel * n_filters)
  in
  let conv =
    Net.add net
      (Ensemble.create ~name ~shape:[ oh; ow; n_filters ] (Ensemble.Compute neuron))
  in
  let channel_spec =
    match channel_slice with
    | None -> Mapping.All
    | Some (lo, size) -> Mapping.Slice { lo; size }
  in
  let mapping =
    Mapping.Structured
      [|
        Mapping.Window { sink_dim = 0; stride; offset = -pad; size = kernel };
        Mapping.Window { sink_dim = 1; stride; offset = -pad; size = kernel };
        channel_spec;
      |]
  in
  (* The data-copy task materializes flattened windows so the compute
     nest pattern-matches to GEMM (Figure 9). *)
  Net.add_connections net ~source:src ~sink:conv ~access:Connection.Copy_task mapping;
  conv

let convolution net ~name ~input:(src : Ensemble.t) ~n_filters ~kernel
    ?(stride = 1) ?(pad = 0) ?(groups = 1) () =
  require_hwc "Layers.convolution" src;
  if groups = 1 then
    conv_single net ~name ~src ~n_filters ~kernel ~stride ~pad ~channel_slice:None
  else begin
    let c = src.shape.(2) in
    if c mod groups <> 0 || n_filters mod groups <> 0 then
      invalid_arg
        (Printf.sprintf
           "Layers.convolution %s: groups=%d must divide channels (%d) and filters (%d)"
           name groups c n_filters);
    let cpg = c / groups and fpg = n_filters / groups in
    let parts =
      List.init groups (fun g ->
          conv_single net
            ~name:(Printf.sprintf "%s_g%d" name g)
            ~src ~n_filters:fpg ~kernel ~stride ~pad
            ~channel_slice:(Some (g * cpg, cpg)))
    in
    concat_channels net ~name ~inputs:parts
  end

let pooling_mapping ~kernel ~stride =
  Mapping.Structured
    [|
      Mapping.Window { sink_dim = 0; stride; offset = 0; size = kernel };
      Mapping.Window { sink_dim = 1; stride; offset = 0; size = kernel };
      Mapping.Eq 2;
    |]

let pooling neuron_type net ~name ~input:(src : Ensemble.t) ~kernel ?stride () =
  let what = "Layers.pooling" in
  require_hwc what src;
  let stride = Option.value ~default:kernel stride in
  let h = src.shape.(0) and w = src.shape.(1) and c = src.shape.(2) in
  let oh = out_dim ~size:h ~kernel ~stride ~pad:0 in
  let ow = out_dim ~size:w ~kernel ~stride ~pad:0 in
  let pool =
    Net.add net
      (Ensemble.create ~name ~shape:[ oh; ow; c ] (Ensemble.Compute neuron_type))
  in
  Net.add_connections net ~source:src ~sink:pool ~access:Connection.Direct_index
    (pooling_mapping ~kernel ~stride);
  pool

let max_pooling net ~name ~input ~kernel ?stride () =
  pooling Neuron.max_pool net ~name ~input ~kernel ?stride ()

let avg_pooling net ~name ~input ~kernel ?stride () =
  pooling Neuron.avg_pool net ~name ~input ~kernel ?stride ()

let activation neuron_type net ~name ~input:(src : Ensemble.t) =
  let act =
    Net.add net
      (Ensemble.create ~name
         ~shape:(Array.to_list src.shape)
         (Ensemble.Activation neuron_type))
  in
  Net.add_connections net ~source:src ~sink:act
    (Mapping.one_to_one ~rank:(Shape.rank src.shape));
  act

let relu net ~name ~input = activation Neuron.relu net ~name ~input
let sigmoid net ~name ~input = activation Neuron.sigmoid net ~name ~input
let tanh_layer net ~name ~input = activation Neuron.tanh_ net ~name ~input

(* ------------------------------------------------------------------ *)
(* Softmax / loss                                                      *)
(* ------------------------------------------------------------------ *)

let item_slice t item =
  (* Flat (offset, length) of one batch item in a [batch; ...] buffer. *)
  let n = Tensor.numel t / (Tensor.shape t).(0) in
  (item * n, n)

let softmax_forward ~src ~dst ~item =
  let off_s, n = item_slice src item in
  let off_d, _ = item_slice dst item in
  let src = Tensor.data src and dst = Tensor.data dst in
  let m = ref neg_infinity in
  for i = 0 to n - 1 do
    m := Float.max !m (get_f32 src (off_s + i))
  done;
  let z = ref 0.0 in
  for i = 0 to n - 1 do
    let e = exp (get_f32 src (off_s + i) -. !m) in
    set_f32 dst (off_d + i) e;
    z := !z +. e
  done;
  let inv = 1.0 /. !z in
  for i = 0 to n - 1 do
    set_f32 dst (off_d + i) (inv *. get_f32 dst (off_d + i))
  done

let softmax net ~name ~input:(src : Ensemble.t) =
  let ops =
    {
      Ensemble.fwd =
        (fun ~bufs ~lookup ~item ->
          softmax_forward ~src:(lookup bufs.Ensemble.src_value)
            ~dst:(lookup bufs.Ensemble.value) ~item);
      bwd = None;
      extra_reads = [];
      extra_writes = [];
      per_item = true;
    }
  in
  let sm =
    Net.add net
      (Ensemble.create ~name ~shape:(Array.to_list src.shape)
         (Ensemble.Normalization ops))
  in
  Net.add_connections net ~source:src ~sink:sm
    (Mapping.one_to_one ~rank:(Shape.rank src.shape));
  sm

let softmax_loss net ~name ~input:(src : Ensemble.t) ~label_buf ~loss_buf =
  let fwd ~bufs ~lookup ~item =
    let dst = lookup bufs.Ensemble.value in
    softmax_forward ~src:(lookup bufs.Ensemble.src_value) ~dst ~item;
    let labels = lookup label_buf and loss = lookup loss_buf in
    let off, n = item_slice dst item in
    let label = int_of_float (get_f32 (Tensor.data labels) item) in
    if label < 0 || label >= n then
      failwith (Printf.sprintf "softmax_loss %s: label %d out of range" name label);
    let p = Float.max 1e-12 (get_f32 (Tensor.data dst) (off + label)) in
    set_f32 (Tensor.data loss) item (-.log p)
  in
  let bwd ~bufs ~lookup ~item =
    match bufs.Ensemble.src_grad with
    | None -> ()
    | Some sg ->
        let probs = lookup bufs.Ensemble.value and grad = lookup sg in
        let labels = lookup label_buf in
        let batch = (Tensor.shape probs).(0) in
        let off, n = item_slice probs item in
        let probs = Tensor.data probs and grad = Tensor.data grad in
        let label = int_of_float (get_f32 (Tensor.data labels) item) in
        let scale = 1.0 /. float_of_int batch in
        for i = 0 to n - 1 do
          let p = get_f32 probs (off + i) in
          let target = if i = label then 1.0 else 0.0 in
          set_f32 grad (off + i)
            (get_f32 grad (off + i) +. (scale *. (p -. target)))
        done
  in
  let ops =
    {
      Ensemble.fwd;
      bwd = Some bwd;
      extra_reads = [ label_buf ];
      extra_writes = [ loss_buf ];
      per_item = true;
    }
  in
  let sl =
    Net.add net
      (Ensemble.create ~name ~shape:(Array.to_list src.shape)
         (Ensemble.Normalization ops))
  in
  Net.add_connections net ~source:src ~sink:sl
    (Mapping.one_to_one ~rank:(Shape.rank src.shape));
  sl

(* ------------------------------------------------------------------ *)
(* Local response normalization                                        *)
(* ------------------------------------------------------------------ *)

let lrn net ~name ~input:(src : Ensemble.t) ?(size = 5) ?(alpha = 1e-4)
    ?(beta = 0.75) ?(k = 1.0) () =
  require_hwc "Layers.lrn" src;
  let channels = src.shape.(2) in
  let spatial = src.shape.(0) * src.shape.(1) in
  let half = size / 2 in
  let denom_at v off c =
    let acc = ref 0.0 in
    for j = max 0 (c - half) to min (channels - 1) (c + half) do
      let x = get_f32 v (off + j) in
      acc := !acc +. (x *. x)
    done;
    k +. (alpha /. float_of_int size *. !acc)
  in
  let fwd ~bufs ~lookup ~item =
    let v = lookup bufs.Ensemble.src_value and out = lookup bufs.Ensemble.value in
    let off0, _ = item_slice v item in
    let v = Tensor.data v and out = Tensor.data out in
    for s = 0 to spatial - 1 do
      let off = off0 + (s * channels) in
      for c = 0 to channels - 1 do
        let d = denom_at v off c in
        set_f32 out (off + c)
          (get_f32 v (off + c) *. Float.pow d (-.beta))
      done
    done
  in
  let bwd ~bufs ~lookup ~item =
    match bufs.Ensemble.src_grad with
    | None -> ()
    | Some sg ->
        let v = lookup bufs.Ensemble.src_value in
        let g = lookup bufs.Ensemble.grad and dst = lookup sg in
        let off0, _ = item_slice v item in
        let v = Tensor.data v and g = Tensor.data g and dst = Tensor.data dst in
        let coef = 2.0 *. alpha /. float_of_int size *. beta in
        for s = 0 to spatial - 1 do
          let off = off0 + (s * channels) in
          (* d out_i / d v_j = δ_ij D_i^-β − coef · v_i v_j D_i^-(β+1)
             for j in the window of i. *)
          for j = 0 to channels - 1 do
            let acc = ref 0.0 in
            for i = max 0 (j - half) to min (channels - 1) (j + half) do
              let di = denom_at v off i in
              let gi = get_f32 g (off + i) in
              let vi = get_f32 v (off + i) in
              let vj = get_f32 v (off + j) in
              let term =
                (if i = j then Float.pow di (-.beta) else 0.0)
                -. (coef *. vi *. vj *. Float.pow di (-.(beta +. 1.0)))
              in
              acc := !acc +. (gi *. term)
            done;
            set_f32 dst (off + j) (get_f32 dst (off + j) +. !acc)
          done
        done
  in
  let ops =
    {
      Ensemble.fwd;
      bwd = Some bwd;
      extra_reads = [];
      extra_writes = [];
      per_item = true;
    }
  in
  let n =
    Net.add net
      (Ensemble.create ~name ~shape:(Array.to_list src.shape)
         (Ensemble.Normalization ops))
  in
  Net.add_connections net ~source:src ~sink:n
    (Mapping.one_to_one ~rank:(Shape.rank src.shape));
  n

(* ------------------------------------------------------------------ *)
(* Batch normalization (whole-batch statistics)                        *)
(* ------------------------------------------------------------------ *)

let batch_norm net ~name ~input:(src : Ensemble.t) ?(epsilon = 1e-5) () =
  let rank = Shape.rank src.shape in
  let channels = if rank = 0 then 1 else src.shape.(rank - 1) in
  let inv_std = ref [||] in
  let fwd ~bufs ~lookup ~item:_ =
    let v = lookup bufs.Ensemble.src_value and out = lookup bufs.Ensemble.value in
    let total = Tensor.numel v in
    let rows = total / channels in
    let v = Tensor.data v and out = Tensor.data out in
    let mean = Array.make channels 0.0 and var = Array.make channels 0.0 in
    for r = 0 to rows - 1 do
      for c = 0 to channels - 1 do
        mean.(c) <- mean.(c) +. get_f32 v ((r * channels) + c)
      done
    done;
    let nr = float_of_int rows in
    Array.iteri (fun c m -> mean.(c) <- m /. nr) mean;
    for r = 0 to rows - 1 do
      for c = 0 to channels - 1 do
        let d = get_f32 v ((r * channels) + c) -. mean.(c) in
        var.(c) <- var.(c) +. (d *. d)
      done
    done;
    inv_std := Array.init channels (fun c -> 1.0 /. sqrt ((var.(c) /. nr) +. epsilon));
    for r = 0 to rows - 1 do
      for c = 0 to channels - 1 do
        let i = (r * channels) + c in
        set_f32 out i ((get_f32 v i -. mean.(c)) *. !inv_std.(c))
      done
    done
  in
  let bwd ~bufs ~lookup ~item:_ =
    match bufs.Ensemble.src_grad with
    | None -> ()
    | Some sg ->
        let xhat = lookup bufs.Ensemble.value and g = lookup bufs.Ensemble.grad in
        let dst = lookup sg in
        let total = Tensor.numel xhat in
        let rows = total / channels in
        let nr = float_of_int rows in
        let xhat = Tensor.data xhat and g = Tensor.data g and dst = Tensor.data dst in
        let sum_g = Array.make channels 0.0 and sum_gx = Array.make channels 0.0 in
        for r = 0 to rows - 1 do
          for c = 0 to channels - 1 do
            let i = (r * channels) + c in
            sum_g.(c) <- sum_g.(c) +. get_f32 g i;
            sum_gx.(c) <- sum_gx.(c) +. (get_f32 g i *. get_f32 xhat i)
          done
        done;
        for r = 0 to rows - 1 do
          for c = 0 to channels - 1 do
            let i = (r * channels) + c in
            let gi = get_f32 g i and xi = get_f32 xhat i in
            let dx =
              !inv_std.(c) /. nr
              *. ((nr *. gi) -. sum_g.(c) -. (xi *. sum_gx.(c)))
            in
            set_f32 dst i (get_f32 dst i +. dx)
          done
        done
  in
  let ops =
    {
      Ensemble.fwd;
      bwd = Some bwd;
      extra_reads = [];
      extra_writes = [];
      per_item = false;
    }
  in
  let bn =
    Net.add net
      (Ensemble.create ~name ~shape:(Array.to_list src.shape)
         (Ensemble.Normalization ops))
  in
  Net.add_connections net ~source:src ~sink:bn
    (Mapping.one_to_one ~rank:(Shape.rank src.shape));
  bn

(* ------------------------------------------------------------------ *)
(* Learned per-channel affine (Scale) and elementwise combinations     *)
(* ------------------------------------------------------------------ *)

let scale_neuron ~channel_dim =
  let open Kernel in
  let fmul a b = Ir.Fbinop (Fmul, a, b) in
  let fadd a b = Ir.Fbinop (Fadd, a, b) in
  let gamma = field "gamma" [ Ir.int_ 0 ] in
  let beta = field "beta" [ Ir.int_ 0 ] in
  let x = input (Ir.int_ 0) in
  Neuron.create ~type_name:"ScaleNeuron"
    ~fields:
      [
        Neuron.make_field ~name:"gamma" ~shape:[ 1 ] ~varies_along:[ channel_dim ]
          ~init:(Neuron.Const 1.0) ();
        Neuron.make_field ~name:"beta" ~shape:[ 1 ] ~varies_along:[ channel_dim ]
          ~init:Neuron.Zeros ();
      ]
    ~forward:[ set_value (fadd (fmul gamma x) beta) ]
    ~backward:
      [
        accum_grad_input (Ir.int_ 0) (fmul grad gamma);
        accum_grad_field "gamma" [ Ir.int_ 0 ] (fmul grad x);
        accum_grad_field "beta" [ Ir.int_ 0 ] grad;
      ]
    ()

let scale net ~name ~input:(src : Ensemble.t) =
  let rank = Shape.rank src.shape in
  if rank < 1 then invalid_arg "Layers.scale: rank >= 1 required";
  let e =
    Net.add net
      (Ensemble.create ~name
         ~shape:(Array.to_list src.shape)
         (Ensemble.Compute (scale_neuron ~channel_dim:(rank - 1))))
  in
  Net.add_connections net ~source:src ~sink:e (Mapping.one_to_one ~rank);
  e

let eltwise neuron net ~name ~(a : Ensemble.t) ~(b : Ensemble.t) =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg
      (Printf.sprintf "Layers.eltwise %s: shapes %s and %s differ" name
         (Shape.to_string a.shape) (Shape.to_string b.shape));
  let rank = Shape.rank a.shape in
  let e =
    Net.add net
      (Ensemble.create ~name ~shape:(Array.to_list a.shape) (Ensemble.Compute neuron))
  in
  Net.add_connections net ~source:a ~sink:e (Mapping.one_to_one ~rank);
  Net.add_connections net ~source:b ~sink:e (Mapping.one_to_one ~rank);
  e

let eltwise_add net ~name ~a ~b = eltwise Neuron.add2 net ~name ~a ~b
let eltwise_mul net ~name ~a ~b = eltwise Neuron.mul2 net ~name ~a ~b

(* ------------------------------------------------------------------ *)
(* Dropout                                                             *)
(* ------------------------------------------------------------------ *)

let dropout net ~name ~input:(src : Ensemble.t) ?(ratio = 0.5) ?(seed = 7) () =
  if ratio < 0.0 || ratio >= 1.0 then invalid_arg "Layers.dropout: ratio in [0,1)";
  let rng = Rng.create seed in
  let keep = 1.0 -. ratio in
  let mask = ref [||] in
  let fwd ~bufs ~lookup ~item:_ =
    let v = lookup bufs.Ensemble.src_value and out = lookup bufs.Ensemble.value in
    let total = Tensor.numel v in
    if Array.length !mask <> total then mask := Array.make total 0.0;
    let v = Tensor.data v and out = Tensor.data out in
    let scale = 1.0 /. keep in
    for i = 0 to total - 1 do
      let m = if Rng.float rng 1.0 < keep then scale else 0.0 in
      !mask.(i) <- m;
      set_f32 out i (m *. get_f32 v i)
    done
  in
  let bwd ~bufs ~lookup ~item:_ =
    match bufs.Ensemble.src_grad with
    | None -> ()
    | Some sg ->
        let g = lookup bufs.Ensemble.grad and dst = lookup sg in
        let n = Tensor.numel g in
        let g = Tensor.data g and dst = Tensor.data dst in
        for i = 0 to n - 1 do
          set_f32 dst i
            (get_f32 dst i +. (!mask.(i) *. get_f32 g i))
        done
  in
  let ops =
    {
      Ensemble.fwd;
      bwd = Some bwd;
      extra_reads = [];
      extra_writes = [];
      per_item = false;
    }
  in
  let d =
    Net.add net
      (Ensemble.create ~name ~shape:(Array.to_list src.shape)
         (Ensemble.Normalization ops))
  in
  Net.add_connections net ~source:src ~sink:d
    (Mapping.one_to_one ~rank:(Shape.rank src.shape));
  d
