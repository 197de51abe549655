let line_bytes = 64

(* Cost results are handed back in an all-float record, which OCaml
   stores flat: writing one boxes nothing, where a float returned across
   a library boundary would be boxed on every access. *)
type cost = { mutable ns : float }

(* A line fill's delay through the shared resources, split the same way
   and stored flat for the same reason. *)
type fill = { mutable service : float; mutable overflow : float }

type t = {
  topo : Topology.t;
  vproc_node : int array;
  l2 : Cache.t array; (* per vproc: models the private L1+L2 *)
  l3 : Cache.t array; (* per node *)
  banks : Contention.t array; (* per node *)
  links : Contention.t array array; (* directed, per (src, dst) pair *)
  l2_hit_ns : float;
  l3_hit_ns : float;
  out : cost; (* the result cell [access] and [bulk] return *)
  fill : fill; (* the result cell [transfer_delay] writes *)
  bank_req : Contention.req;
  link_req : Contention.req;
}

let create ?(cap_scale = 1.) topo ~n_vprocs ~vproc_node =
  if n_vprocs <= 0 then invalid_arg "Cost_model.create";
  let n = Topology.n_nodes topo in
  {
    topo;
    vproc_node = Array.init n_vprocs vproc_node;
    l2 =
      Array.init n_vprocs (fun _ ->
          Cache.create ~size_kb:topo.Topology.l2_kb ~line_bytes);
    l3 =
      Array.init n (fun _ ->
          Cache.create ~size_kb:topo.Topology.l3_usable_kb ~line_bytes);
    banks =
      Array.init n (fun i ->
          Contention.create ~gb_per_s:topo.Topology.bw.(i).(i) ~cap_scale ());
    links =
      Array.init n (fun src ->
          Array.init n (fun dst ->
              Contention.create ~gb_per_s:topo.Topology.bw.(src).(dst)
                ~cap_scale ()));
    l2_hit_ns = 12. /. topo.Topology.ghz;
    l3_hit_ns = 40. /. topo.Topology.ghz;
    out = { ns = 0. };
    fill = { service = 0.; overflow = 0. };
    bank_req = Contention.req ();
    link_req = Contention.req ();
  }

let topology t = t.topo
let vproc_node t v = t.vproc_node.(v)

(* Service and queueing-overflow delays through the shared resources a
   transfer crosses: the destination bank always, plus the interconnect
   link when the request leaves its node.  Service is pipelinable (a
   prefetch stream hides it under latency); overflow is not.  The two
   land in [t.fill], overwritten by the next call.  Inlined, like
   [line_fill], so the clock reaches the request cells unboxed. *)
let[@inline] transfer_delay t ~src ~dst ~now_ns =
  let bank = t.bank_req in
  bank.at_ns <- now_ns;
  Contention.transfer t.banks.(dst) bank ~bytes:line_bytes;
  if src = dst then begin
    t.fill.service <- bank.service;
    t.fill.overflow <- bank.overflow
  end
  else begin
    let link = t.link_req in
    link.at_ns <- now_ns;
    Contention.transfer t.links.(src).(dst) link ~bytes:line_bytes;
    t.fill.service <- Float.max bank.service link.service;
    t.fill.overflow <- Float.max bank.overflow link.overflow
  end

(* Cost of one line fill from memory, with contention. *)
let[@inline] line_fill t ~src ~dst ~now_ns =
  transfer_delay t ~src ~dst ~now_ns;
  t.topo.Topology.latency.(src).(dst) +. t.fill.service +. t.fill.overflow

let access t ~vproc ~dst_node ~addr ~bytes ~now_ns =
  let src = t.vproc_node.(vproc) in
  let l2 = t.l2.(vproc) and l3 = t.l3.(src) in
  let first_line = addr / line_bytes
  and last_line = (addr + bytes - 1) / line_bytes in
  let cost = ref 0. in
  for line = first_line to last_line do
    let la = line * line_bytes in
    if Cache.access l2 la then cost := !cost +. t.l2_hit_ns
    else if Cache.access l3 la then cost := !cost +. t.l3_hit_ns
    else begin
      (* Later lines of one access start after the earlier ones finish,
         so the queueing model must see the advanced clock. *)
      cost :=
        !cost +. line_fill t ~src ~dst:dst_node ~now_ns:(now_ns +. !cost)
    end
  done;
  t.out.ns <- !cost;
  t.out

let bulk t ~vproc ~dst_node ~addr ~bytes ~now_ns =
  let src = t.vproc_node.(vproc) in
  let l2 = t.l2.(vproc) and l3 = t.l3.(src) in
  let first_line = addr / line_bytes
  and last_line = (addr + bytes - 1) / line_bytes in
  let cost = ref 0. in
  (* Sequential streams are prefetch-friendly: the fill latency is paid in
     full only once per [prefetch_depth] lines and amortized otherwise,
     while the bandwidth term is always paid — so saturating streams are
     bandwidth-bound, as on real hardware. *)
  let depth = 16 in
  for line = first_line to last_line do
    let la = line * line_bytes in
    let hit2 = Cache.access l2 la in
    let hit3 = hit2 || Cache.access l3 la in
    let full = line land (depth - 1) = 0 in
    let c =
      if hit2 then t.l2_hit_ns
      else if hit3 then
        if full then t.l3_hit_ns else t.l3_hit_ns /. float_of_int depth
      else begin
        (* Streaming: the prefetch pipeline hides the transfer's service
           time under the (amortized) latency, but queueing overflow on a
           saturated bank or link cannot be hidden. *)
        let lat = t.topo.Topology.latency.(src).(dst_node) in
        let lat = if full then lat else lat /. float_of_int depth in
        transfer_delay t ~src ~dst:dst_node ~now_ns:(now_ns +. !cost);
        Float.max lat t.fill.service +. t.fill.overflow
      end
    in
    cost := !cost +. c
  done;
  t.out.ns <- !cost;
  t.out

let invalidate_range t ~lo ~hi =
  Array.iter (fun c -> Cache.invalidate_range c ~lo ~hi) t.l2;
  Array.iter (fun c -> Cache.invalidate_range c ~lo ~hi) t.l3

let bank_total_bytes t ~node = Contention.total_bytes t.banks.(node)
let bank_utilization t ~node ~now_ns = Contention.utilization t.banks.(node) ~now_ns

let link_utilization t ~src ~dst ~now_ns =
  Contention.utilization t.links.(src).(dst) ~now_ns

let hit_rate c =
  let h = float_of_int (Cache.hits c) and m = float_of_int (Cache.misses c) in
  if h +. m = 0. then 0. else h /. (h +. m)

let l2_hit_rate t ~vproc = hit_rate t.l2.(vproc)
let l3_hit_rate t ~node = hit_rate t.l3.(node)

let reset_meters t =
  Array.iter Contention.reset t.banks;
  Array.iter (Array.iter Contention.reset) t.links
