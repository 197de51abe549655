open Heap

let run ?(cause = Obs.Gc_cause.Forced) ctx =
  (* Stop-the-world collection over a half-evacuated heap would treat
     to-space as from-space and double-copy live data: the in-flight
     cycle must ratify first. *)
  if Ctx.conc_active ctx then
    failwith "Global_gc.run: concurrent collection already in flight";
  Ctx.enter_collection ctx;
  let store = ctx.Ctx.store in
  let muts = ctx.Ctx.muts in
  let lead = Forward.min_clock_vproc ctx in
  (* Each vproc's Global span starts at its own arrival, not at the
     earliest clock: time before it stopped was its own mutator work. *)
  let arrivals = Array.map (fun (m : Ctx.mutator) -> m.Ctx.now_ns) muts in
  (* Phase transitions are recorded on the leader's ring: the phases are
     global, and one ring's worth of markers is enough to segment every
     vproc's events by time. *)
  let phase p =
    Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:lead.Ctx.now_ns
      (Obs.Event.Global_phase { phase = p })
  in
  Array.iter
    (fun (m : Ctx.mutator) ->
      Ctx.coll_begin ctx m Gc_trace.Global ~cause ~t_ns:arrivals.(m.Ctx.id))
    muts;
  phase Obs.Event.Entry;
  (* Entry: the leader sets the flag and signals; every vproc reaches its
     safe point and performs minor and major collections.  Each vproc's
     work is charged to its own clock (they run in parallel). *)
  Array.iter
    (fun (m : Ctx.mutator) ->
      m.Ctx.in_gc <- true;
      Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.barrier_cycles;
      Minor_gc.run ~cause ctx m;
      Major_gc.run ~cause ctx m)
    muts;
  (* Barrier: nobody proceeds until the slowest vproc arrives.  The gap
     between a vproc's own arrival and the barrier opening is dead wait,
     recorded as its own pause kind. *)
  let t_entry = Forward.max_clock ctx in
  Array.iter (fun m -> Ctx.barrier_wait ctx m ~cause ~t_to:t_entry) muts;
  phase Obs.Event.Roots;
  (* All in-use chunks become from-space; each vproc evacuates its roots
     and its (now old-only) local heap's global targets, and the leader
     the runtime's global roots. *)
  let ts = Forward.condemn ctx in
  let evs = Array.map (Forward.evacuator ctx ts) muts in
  Array.iter
    (fun (ev : Forward.evacuator) ->
      Forward.forward_roots ctx ev;
      if ev.m.Ctx.id = lead.Ctx.id then Roots.iter ctx.Ctx.global_roots ev.cell)
    evs;
  phase Obs.Event.Cheney;
  Forward.cheney ctx ts evs;
  phase Obs.Event.Retarget;
  (* Retarget local forwarding words: promotions and the entry majors
     left forwarding words in the local heaps that point into from-space,
     which is about to be recycled.  Rewriting them to the final to-space
     addresses keeps stale aliases resolvable and the heap walkable. *)
  Array.iter
    (fun (m : Ctx.mutator) ->
      let lh = m.Ctx.lh in
      let addr = ref lh.Local_heap.base in
      while !addr < lh.Local_heap.old_top do
        let h = Ctx.read_int ctx m !addr in
        if Header.Int.is_forward h then begin
          let target = Header.Int.forward_addr h in
          let th = Ctx.read_int ctx m target in
          let final =
            if Header.Int.is_forward th then Header.Int.forward_addr th
            else target
          in
          if final <> target then
            Ctx.write_int ctx m !addr (Header.Int.forward final);
          addr := !addr + Obj_repr.total_bytes store final
        end
        else addr := !addr + ((Header.Int.length_words h + 1) * 8)
      done)
    muts;
  phase Obs.Event.Sweep;
  (* Return from-space chunks to the pool and resume: the program restarts
     once the last vproc finishes. *)
  Forward.release ctx ts ~lead;
  phase Obs.Event.Exit;
  let t_exit = Forward.max_clock ctx in
  Array.iter
    (fun (m : Ctx.mutator) ->
      Ctx.barrier_wait ctx m ~cause ~t_to:t_exit;
      Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.barrier_cycles;
      m.Ctx.in_gc <- false)
    muts;
  let copied_by = ts.Ctx.ts_copied_by in
  Array.iter
    (fun (m : Ctx.mutator) ->
      Ctx.coll_end ctx m Gc_trace.Global ~cause
        ~t_start:arrivals.(m.Ctx.id) ~t_end:m.Ctx.now_ns
        ~bytes:copied_by.(m.Ctx.id))
    muts;
  Ctx.finish_global ctx ~collector:"global GC" ~copied_by

(* The safe-point response depends on the configured collector: STW runs
   a full collection on the spot; concurrent starts a cycle and then
   advances it by one bounded slice per safe point (the handshake
   piggy-backs on the allocation-limit poll). *)
let install_sync_hook ctx =
  Ctx.set_safe_point_hook ctx (fun ctx _m ->
      (* An in-flight concurrent cycle always takes precedence over the
         configured mode: evacuation can re-arm [global_gc_pending]
         mid-cycle (budget overflow in [Forward.global_dest]), and a
         stop-the-world run over a half-evacuated heap is unsound. *)
      if Concurrent_gc.active ctx then ignore (Concurrent_gc.step ctx)
      else
        match ctx.Ctx.params.Params.global_gc_mode with
        | Params.Stw -> run ~cause:Obs.Gc_cause.Global_threshold ctx
        | Params.Concurrent ->
            Concurrent_gc.start ~cause:Obs.Gc_cause.Global_threshold ctx)
