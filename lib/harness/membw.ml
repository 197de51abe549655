let theoretical (t : Numa.Topology.t) ~src_node ~dst_node =
  t.Numa.Topology.bw.(src_node).(dst_node)

let measure topo ~streamers ~src_node ~dst_node ~mb_per_streamer =
  if streamers <= 0 then invalid_arg "Membw.measure";
  let cost =
    Numa.Cost_model.create topo ~n_vprocs:streamers ~vproc_node:(fun _ -> src_node)
  in
  let bytes_per_streamer = mb_per_streamer * 1024 * 1024 in
  let step = 16 * 1024 in
  let clocks = Array.make streamers 0. in
  let cursor = Array.make streamers 0 in
  (* Give each streamer a disjoint address range so they do not share
     cache lines. *)
  let base i = (i + 1) * 1 lsl 30 in
  let total = ref 0 in
  let remaining = ref streamers in
  while !remaining > 0 do
    (* Advance the streamer with the smallest clock, as the scheduler
       would. *)
    let who = ref (-1) in
    Array.iteri
      (fun i c ->
        if cursor.(i) < bytes_per_streamer
           && (!who < 0 || c < clocks.(!who))
        then who := i)
      clocks;
    let i = !who in
    let ns =
      (Numa.Cost_model.bulk cost ~vproc:i ~dst_node
         ~addr:(base i + cursor.(i))
         ~bytes:step ~now_ns:clocks.(i))
        .Numa.Cost_model.ns
    in
    clocks.(i) <- clocks.(i) +. ns;
    cursor.(i) <- cursor.(i) + step;
    total := !total + step;
    if cursor.(i) >= bytes_per_streamer then decr remaining
  done;
  let makespan = Array.fold_left Float.max 0. clocks in
  float_of_int !total /. makespan
