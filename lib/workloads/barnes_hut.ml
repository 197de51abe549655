open Heap
open Manticore_gc
open Runtime

let particles_of_scale scale = max 64 (int_of_float (2000. *. scale))
let iters_of_scale scale = max 1 (int_of_float (3. *. Float.max 1. scale))
let theta = 0.5
let max_depth = 24
let dt = 0.005
let softening2 = 1e-4

let node_desc (c : Ctx.t) =
  let table = c.Ctx.store.Store.table in
  match Descriptor.find_by_name table "bh_node" with
  | Some d -> d
  | None ->
      Descriptor.register table ~name:"bh_node" ~size_words:7
        ~pointer_slots:[ 3; 4; 5; 6 ]

(* Particles: raw objects [mass; x; y; vx; vy]. *)
let alloc_particle c m ~mass ~x ~y ~vx ~vy =
  let p = Alloc.alloc_raw c m ~words:5 in
  Alloc.init_float c m p 0 mass;
  Alloc.init_float c m p 1 x;
  Alloc.init_float c m p 2 y;
  Alloc.init_float c m p 3 vx;
  Alloc.init_float c m p 4 vy;
  p

let pfloat c m p i = Ctx.get_float c m (Value.to_ptr p) i
let is_particle c m v =
  Header.Int.id (Ctx.header_of c m (Value.to_ptr v)) = Header.raw_id

(* Tree nodes: mixed [mass; mx; my; q0; q1; q2; q3] where mx, my are
   mass-weighted position sums (associative under insertion). *)
let alloc_node c m d ~mass ~mx ~my children =
  let fields = Array.make 7 (Value.of_int 0) in
  Array.blit children 0 fields 3 4;
  let node = Alloc.alloc_mixed c m d fields in
  Alloc.init_float c m node 0 mass;
  Alloc.init_float c m node 1 mx;
  Alloc.init_float c m node 2 my;
  node

let nil = Value.of_int 0
let quadrant ~x0 ~y0 ~sz x y =
  let cx = x0 +. (sz /. 2.) and cy = y0 +. (sz /. 2.) in
  (if x >= cx then 1 else 0) + if y >= cy then 2 else 0

let sub_box ~x0 ~y0 ~sz q =
  let h = sz /. 2. in
  ( (if q land 1 = 1 then x0 +. h else x0),
    (if q land 2 = 2 then y0 +. h else y0),
    h )

(* Functional insertion: returns the new subtree.  [tcell] and [pcell]
   are live root cells, re-read after every allocation. *)
let rec insert rt c (m : Ctx.mutator) ~x0 ~y0 ~sz ~depth tcell pcell =
  let d = node_desc c in
  let tree = Roots.get tcell in
  if Value.is_int tree then Roots.get pcell
  else if is_particle c m tree then
    if depth >= max_depth then begin
      (* Two coincident (or near-coincident) particles: merge them. *)
      let om = pfloat c m tree 0
      and ox = pfloat c m tree 1
      and oy = pfloat c m tree 2
      and ovx = pfloat c m tree 3
      and ovy = pfloat c m tree 4 in
      let p = Roots.get pcell in
      let pm = pfloat c m p 0
      and px = pfloat c m p 1
      and py = pfloat c m p 2
      and pvx = pfloat c m p 3
      and pvy = pfloat c m p 4 in
      let mass = om +. pm in
      alloc_particle c m ~mass
        ~x:(((om *. ox) +. (pm *. px)) /. mass)
        ~y:(((om *. oy) +. (pm *. py)) /. mass)
        ~vx:(((om *. ovx) +. (pm *. pvx)) /. mass)
        ~vy:(((om *. ovy) +. (pm *. pvy)) /. mass)
    end
    else begin
      (* Split: wrap the resident particle in a node, then insert the new
         one into that node. *)
      let om = pfloat c m tree 0
      and ox = pfloat c m tree 1
      and oy = pfloat c m tree 2 in
      let q = quadrant ~x0 ~y0 ~sz ox oy in
      let children = Array.make 4 nil in
      children.(q) <- Roots.get tcell;
      let node =
        alloc_node c m d ~mass:om ~mx:(om *. ox) ~my:(om *. oy) children
      in
      Roots.protect m.Ctx.roots node (fun cnode ->
          insert rt c m ~x0 ~y0 ~sz ~depth cnode pcell)
    end
  else begin
    (* Interior node: descend into the new particle's quadrant, then
       rebuild this node with the updated child and aggregates. *)
    let p = Roots.get pcell in
    let pm = pfloat c m p 0 and px = pfloat c m p 1 and py = pfloat c m p 2 in
    let q = quadrant ~x0 ~y0 ~sz px py in
    let sx, sy, sh = sub_box ~x0 ~y0 ~sz q in
    let child = Ctx.get_field c m (Value.to_ptr tree) (3 + q) in
    let sub =
      Roots.protect m.Ctx.roots child (fun ccell ->
          insert rt c m ~x0:sx ~y0:sy ~sz:sh ~depth:(depth + 1) ccell pcell)
    in
    Roots.protect m.Ctx.roots sub (fun csub ->
        let taddr = Value.to_ptr (Roots.get tcell) in
        let mass = Ctx.get_float c m taddr 0 +. pm in
        let mx = Ctx.get_float c m taddr 1 +. (pm *. px) in
        let my = Ctx.get_float c m taddr 2 +. (pm *. py) in
        let children =
          Array.init 4 (fun i ->
              if i = q then Roots.get csub
              else Ctx.get_field c m (Value.to_ptr (Roots.get tcell)) (3 + i))
        in
        alloc_node c m d ~mass ~mx ~my children)
  end

(* Parallel tree construction: the box is split into quadrants down to
   [par_levels] levels, each quadrant's subtree built by a spawned task;
   below that, particles are inserted sequentially.  This mirrors real
   Barnes-Hut implementations, and the remaining sequential partitioning
   is the "sequential portion" the paper blames for the benchmark's
   flattening at high core counts. *)
let par_levels = 3

let build_seq rt c (m : Ctx.mutator) ~x0 ~y0 ~sz ~depth parts idxs =
  let cparts = Roots.add m.Ctx.roots parts in
  let ctree = Roots.add m.Ctx.roots nil in
  List.iter
    (fun i ->
      Sched.tick rt m;
      let p = Pml.Pval.arr_get c m (Roots.get cparts) i in
      Roots.protect m.Ctx.roots p (fun pc ->
          Roots.set ctree (insert rt c m ~x0 ~y0 ~sz ~depth ctree pc);
          Value.unit)
      |> ignore)
    idxs;
  let t = Roots.get ctree in
  Roots.remove m.Ctx.roots ctree;
  Roots.remove m.Ctx.roots cparts;
  t

(* Aggregate (mass, mx, my) of a subtree root — a particle, node or nil. *)
let aggregates c m v =
  if Value.is_int v then (0., 0., 0.)
  else if is_particle c m v then begin
    let mass = pfloat c m v 0 and x = pfloat c m v 1 and y = pfloat c m v 2 in
    (mass, mass *. x, mass *. y)
  end
  else (pfloat c m v 0, pfloat c m v 1, pfloat c m v 2)

let rec build_par rt c (m : Ctx.mutator) ~x0 ~y0 ~sz ~level ~depth parts idxs =
  let d = node_desc c in
  match idxs with
  | [] -> nil
  | [ i ] -> Pml.Pval.arr_get c m parts i
  | _ when level = 0 || List.length idxs <= 64 ->
      build_seq rt c m ~x0 ~y0 ~sz ~depth parts idxs
  | _ ->
      (* Partition by quadrant (charged reads, no allocation). *)
      let buckets = [| []; []; []; [] |] in
      List.iter
        (fun i ->
          let p = Pml.Pval.arr_get c m parts i in
          let q = quadrant ~x0 ~y0 ~sz (pfloat c m p 1) (pfloat c m p 2) in
          buckets.(q) <- i :: buckets.(q))
        (List.rev idxs);
      let futs =
        Array.mapi
          (fun q idxs_q ->
            let sx, sy, sh = sub_box ~x0 ~y0 ~sz q in
            Sched.spawn rt m ~env:[| parts |] (fun m' env ->
                build_par rt c m' ~x0:sx ~y0:sy ~sz:sh ~level:(level - 1)
                  ~depth:(depth + 1) env.(0) (List.rev idxs_q)))
          buckets
      in
      let children = Array.map (fun f -> Roots.add m.Ctx.roots (Sched.await rt m f)) futs in
      let mass = ref 0. and mx = ref 0. and my = ref 0. in
      Array.iter
        (fun cc ->
          let ma, xa, ya = aggregates c m (Roots.get cc) in
          mass := !mass +. ma;
          mx := !mx +. xa;
          my := !my +. ya)
        children;
      let fields = Array.map Roots.get children in
      Array.iter (fun cc -> Roots.remove m.Ctx.roots cc) children;
      if !mass = 0. then nil
      else alloc_node c m d ~mass:!mass ~mx:!mx ~my:!my fields

(* Gravitational acceleration on (px, py) from the tree.  Pure reads —
   no allocation, so raw pointers may be held throughout. *)
let rec force c (m : Ctx.mutator) ~sz tree px py =
  if Value.is_int tree then (0., 0.)
  else begin
    let addr = Value.to_ptr tree in
    if is_particle c m tree then begin
      let mass = Ctx.get_float c m addr 0 in
      let dx = Ctx.get_float c m addr 1 -. px
      and dy = Ctx.get_float c m addr 2 -. py in
      let d2 = (dx *. dx) +. (dy *. dy) +. softening2 in
      let inv = mass /. (d2 *. sqrt d2) in
      Ctx.charge_work c m ~cycles:45.;
      (dx *. inv, dy *. inv)
    end
    else begin
      let mass = Ctx.get_float c m addr 0 in
      let cx = Ctx.get_float c m addr 1 /. mass
      and cy = Ctx.get_float c m addr 2 /. mass in
      let dx = cx -. px and dy = cy -. py in
      let d2 = (dx *. dx) +. (dy *. dy) +. softening2 in
      Ctx.charge_work c m ~cycles:50.;
      if sz *. sz < theta *. theta *. d2 then begin
        let inv = mass /. (d2 *. sqrt d2) in
        (dx *. inv, dy *. inv)
      end
      else begin
        let ax = ref 0. and ay = ref 0. in
        for q = 0 to 3 do
          let child = Ctx.get_field c m addr (3 + q) in
          let fx, fy = force c m ~sz:(sz /. 2.) child px py in
          ax := !ax +. fx;
          ay := !ay +. fy
        done;
        (!ax, !ay)
      end
    end
  end

let clamp lo hi v = Float.max lo (Float.min hi v)

let main rt d (m : Ctx.mutator) ~scale =
  let c = Sched.ctx rt in
  let n = particles_of_scale scale in
  let iters = iters_of_scale scale in
  let init = Plummer.generate ~n ~seed:0xb4 in
  let parts =
    Pml.Par.tabulate rt m d ~env:[||] ~n ~grain:64 ~f:(fun m _ i ->
        let p = init.(i) in
        alloc_particle c m ~mass:p.Plummer.mass ~x:p.Plummer.x ~y:p.Plummer.y
          ~vx:p.Plummer.vx ~vy:p.Plummer.vy)
  in
  let cparts = Roots.add m.Ctx.roots parts in
  let all_idxs = List.init n (fun i -> i) in
  for _iter = 1 to iters do
    (* Phase 1: build the quadtree — parallel near the root, sequential
       insertion below; the sequential partitioning and the final joins
       are this benchmark's scaling limiter. *)
    let ctree = Roots.add m.Ctx.roots nil in
    Roots.set ctree
      (build_par rt c m ~x0:(-1.) ~y0:(-1.) ~sz:2. ~level:par_levels ~depth:0
         (Roots.get cparts) all_idxs);
    (* Phase 2 (parallel): forces and integration. *)
    let parts' =
      Pml.Par.tabulate rt m d
        ~env:[| Roots.get cparts; Roots.get ctree |]
        ~n ~grain:16
        ~f:(fun m env i ->
          let parts = env.(0) and tree = env.(1) in
          let p = Pml.Pval.arr_get c m parts i in
          let mass = pfloat c m p 0
          and x = pfloat c m p 1
          and y = pfloat c m p 2
          and vx = pfloat c m p 3
          and vy = pfloat c m p 4 in
          let ax, ay = force c m ~sz:2. tree x y in
          let vx = vx +. (dt *. ax) and vy = vy +. (dt *. ay) in
          let x = clamp (-0.999) 0.999 (x +. (dt *. vx)) in
          let y = clamp (-0.999) 0.999 (y +. (dt *. vy)) in
          alloc_particle c m ~mass ~x ~y ~vx ~vy)
    in
    Roots.set cparts parts';
    Roots.remove m.Ctx.roots ctree
  done;
  (* Parallel checksum over the final particle positions. *)
  let total =
    Pml.Par.reduce_f rt m
      ~env:[| Roots.get cparts |]
      ~lo:0 ~hi:n ~grain:64
      ~leaf:(fun m env lo hi ->
        let parts = env.(0) in
        let s = ref 0. in
        for i = lo to hi - 1 do
          let p = Pml.Pval.arr_get c m parts i in
          s := !s +. Float.abs (pfloat c m p 1) +. Float.abs (pfloat c m p 2)
        done;
        !s)
      ( +. )
  in
  let r = Pml.Pval.box_float c m total in
  Roots.remove m.Ctx.roots cparts;
  r

let plausible ~scale v =
  let n = particles_of_scale scale in
  Float.is_finite v && v > 0. && v < 2. *. float_of_int n
