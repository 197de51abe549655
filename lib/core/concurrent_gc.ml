(* Concurrent global collection: incremental chunk evacuation with
   bounded pauses.

   The STW collector (Global_gc) stops every vproc behind one barrier for
   the whole copy phase.  Here the cycle is split into bounded slices
   that interleave with mutator execution in virtual time:

   - [start] condemns every in-use chunk (from-space), forwards the
     runtime's global roots, and leaves the mutators running;
   - each [step] runs one slice on the vproc with the smallest clock:
     first a per-vproc *handshake* (evacuate that vproc's roots, proxies
     and local-heap referents into to-space), then *evacuation* slices
     (claim a to-space chunk and Cheney-scan at most
     [Params.conc_slice_bytes] of it), then *drains* of the mutation-log
     generation the collector last flipped out of [Ctx.cg_log] (the
     {!Mut} write barrier keeps appending to the live generation
     meanwhile), then a per-vproc *keep* slice that evacuates and
     retargets local forwarding words with condemned targets;
   - when no work remains, a short *ratify* barrier finishes the cycle.
     With [Params.conc_ratify_dirty_only] the barrier stops only the
     vprocs whose from-space re-acquisition taint ([Ctx.cg_taints],
     bumped by [Ctx.read_word] on any mutator-context load that touches
     a condemned address or returns a from-space pointer, and by
     channel commits handing one over) changed since their handshake —
     the handshake leaves a vproc with no from-space reference, and
     stashing one again requires exactly such a read or hand-off, so an
     untainted vproc keeps running.  The barrier drains the residual
     log, rescans the dirty vprocs' roots and local heaps, closes the
     residual to-space scan, and releases from-space.

   Parallelism: [step_turn] additionally dispatches up to
   [Params.conc_parallel_slices - 1] *assist* evacuation slices on
   distinct idle vprocs in the same scheduler turn; per-chunk claims
   ([Ctx.ts_claims]) keep the helpers on distinct chunks, with takeover
   (paying the claim sync again) guaranteeing progress.

   Soundness leans on the simulator's step-atomicity: a slice runs to
   completion before any mutator move, so mutators never observe a
   half-evacuated object.  Mutators can hold and copy from-space
   pointers freely between slices — reads resolve forwarding words, the
   write barrier logs global stores, and the ratify rescan re-forwards
   whatever the handshakes missed.  Termination: mutators cannot create
   new from-space objects (all allocation goes to local heaps or
   to-space), so evacuation is monotone. *)

open Heap
open Sim_mem

let active = Ctx.conc_active

let evacuator ctx (st : Ctx.conc_state) m =
  Forward.evacuator ctx st.Ctx.cg_space m

let copied (st : Ctx.conc_state) (m : Ctx.mutator) =
  st.Ctx.cg_space.Ctx.ts_copied_by.(m.Ctx.id)

(* Draining-generation work left in [cg_drain]. *)
let drain_pending (st : Ctx.conc_state) =
  st.Ctx.cg_drain_pos < Array.length st.Ctx.cg_drain

(* Per-vproc dirtiness since the handshake: the vproc re-acquired a
   from-space reference (read-taint, see [Ctx.read_word]) and so owes a
   rescan under the ratify barrier; an untainted vproc is skipped. *)
let dirty (st : Ctx.conc_state) (m : Ctx.mutator) =
  st.Ctx.cg_taints.(m.Ctx.id) <> st.Ctx.cg_hs_taints.(m.Ctx.id)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

(* Run [work] on [m] as one slice, in collector context, and report it:
   a Global begin/end pair (so the pause distributions and gcprof see
   each slice as its own bounded pause) plus Conc_phase duration events
   — the time [work] adds to [claim_ns] as [Claim], the rest as [phase].
   The per-slice pauses deliberately omit the cause — it is counted once
   per collection, on the ratify records. *)
let slice ?(claim_ns = ref 0.) ctx (st : Ctx.conc_state) (m : Ctx.mutator)
    phase work =
  let t0 = m.Ctx.now_ns in
  m.Ctx.in_gc <- true;
  let b0 = copied st m in
  work ();
  m.Ctx.in_gc <- false;
  let cause = st.Ctx.cg_cause in
  Ctx.coll_begin ctx m Gc_trace.Global ~cause ~t_ns:t0;
  List.iter
    (fun (phase, dur_ns) ->
      if dur_ns > 0. then
        Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
          (Obs.Event.Conc_phase
             {
               cycle = st.Ctx.cg_cycle;
               phase;
               dur_ns = int_of_float dur_ns;
             }))
    [
      (Obs.Event.Claim, !claim_ns);
      (phase, m.Ctx.now_ns -. t0 -. !claim_ns);
    ];
  Ctx.coll_end ~count_cause:false ctx m Gc_trace.Global ~cause ~t_start:t0
    ~t_end:m.Ctx.now_ns ~bytes:(copied st m - b0)

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

let handshake ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  slice ctx st m Obs.Event.Handshake @@ fun () ->
  Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.handshake_cycles;
  (* Run this vproc's local collections first, exactly as the STW entry
     does — bounded and per-vproc, no barrier.  This consumes every
     pre-cycle forwarding word in the evacuated local area (the major
     empties the old region; its prerequisite minor resets the nursery),
     so the only local references into from-space after the handshake
     are real fields and roots, all rescanned below.  Survivors the
     major promotes land past [scan_ptr] in to-space chunks, so the
     cycle's Cheney scan greys them automatically. *)
  Major_gc.run ~cause:st.Ctx.cg_cause ctx m;
  Forward.forward_roots ctx (evacuator ctx st m);
  st.Ctx.cg_entered.(m.Ctx.id) <- true;
  (* Snapshot the taint *after* the forwarding above: pre-handshake
     from-space reads are made irrelevant by the handshake itself, so
     dirtiness from here on means genuine re-acquisition. *)
  st.Ctx.cg_hs_taints.(m.Ctx.id) <- st.Ctx.cg_taints.(m.Ctx.id)

let evacuate_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let claim_ns = ref 0. in
  slice ~claim_ns ctx st m Obs.Event.Evacuate @@ fun () ->
  let ts = st.Ctx.cg_space in
  let ev = evacuator ctx st m in
  let budget = ref ctx.Ctx.params.Params.conc_slice_bytes in
  while !budget > 0 && Forward.pending ctx ts do
    match Queue.take_opt ts.Ctx.ts_large with
    | Some addr -> budget := !budget - Forward.scan_tospace_object ctx ev addr
    | None -> (
        match Forward.pick_chunk ctx ts m with
        | None ->
            (* Pending work exists but every pending chunk is claimed
               elsewhere and the takeover fallback found nothing either —
               nothing is left for this slice. *)
            budget := 0
        | Some c ->
            (* Claiming a chunk (first claim or takeover) is a node-local
               synchronization; track its cost separately for phase
               attribution. *)
            if Hashtbl.find_opt ts.Ctx.ts_claims c.Chunk.id <> Some m.Ctx.id
            then begin
              let t = m.Ctx.now_ns in
              Hashtbl.replace ts.Ctx.ts_claims c.Chunk.id m.Ctx.id;
              Ctx.charge_work ctx m
                ~cycles:ctx.Ctx.params.Params.chunk_local_sync_cycles;
              claim_ns := !claim_ns +. (m.Ctx.now_ns -. t)
            end;
            while !budget > 0 && c.Chunk.scan_ptr < c.Chunk.alloc_ptr do
              let sz = Forward.scan_tospace_object ctx ev c.Chunk.scan_ptr in
              c.Chunk.scan_ptr <- c.Chunk.scan_ptr + sz;
              budget := !budget - sz
            done)
  done

(* Flip the mutation-log generations: materialize the active log in
   address order as the new draining generation and clear it so mutators
   append to a fresh generation.  Only this swap needs exclusivity — the
   drain itself runs concurrently, in bounded slices. *)
let flip_log ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  let n = Remember.cardinal st.Ctx.cg_log in
  let a = Array.make (max 1 n) 0 in
  let i = ref 0 in
  Remember.iter st.Ctx.cg_log (fun slot ->
      a.(!i) <- slot;
      incr i);
  Remember.clear st.Ctx.cg_log;
  st.Ctx.cg_drain <- Array.sub a 0 n;
  st.Ctx.cg_drain_pos <- 0;
  Ctx.charge_work ctx m ~cycles:(10. +. (0.5 *. float_of_int n))

(* Drain up to [max_slots] of the flipped generation: stores during the
   cycle may have put from-space values into already-scanned slots;
   re-forward them.  The generation is iterated in address order
   (deterministic evacuation order). *)
let drain_some ctx (st : Ctx.conc_state) (m : Ctx.mutator) ~max_slots =
  let ev = evacuator ctx st m in
  let stop =
    min (Array.length st.Ctx.cg_drain) (st.Ctx.cg_drain_pos + max_slots)
  in
  while st.Ctx.cg_drain_pos < stop do
    let slot = st.Ctx.cg_drain.(st.Ctx.cg_drain_pos) in
    st.Ctx.cg_drain_pos <- st.Ctx.cg_drain_pos + 1;
    Ctx.charge_work ctx m ~cycles:2.;
    ev.Forward.field slot
  done

let drain_slots_per_slice = 128

let drain_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  slice ctx st m Obs.Event.Mark @@ fun () ->
  if not (drain_pending st) then flip_log ctx st m;
  drain_some ctx st m ~max_slots:drain_slots_per_slice

(* Drain both generations to empty — the in-barrier residual drain.
   Collector work cannot append to the log, so one flip suffices. *)
let drain_all ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  drain_some ctx st m ~max_slots:max_int;
  if Remember.cardinal st.Ctx.cg_log > 0 then begin
    flip_log ctx st m;
    drain_some ctx st m ~max_slots:max_int
  end

(* ------------------------------------------------------------------ *)
(* Conservative keep: overlapped with mutators                         *)
(* ------------------------------------------------------------------ *)

(* Unlike the STW collector — whose entry minor+major empty the locals,
   so every surviving local forwarding word targets just-promoted (live)
   data — the concurrent cycle keeps both local regions live, so they
   may hold promotion forwards whose condemned target the rescan never
   reached.  Those targets can still be aliased (a register or field
   holding the stale local address resolves through the word), so they
   are evacuated rather than dropped: floating garbage for one cycle,
   the standard trade of a concurrent collector. *)
let walk_forward_words ctx (m : Ctx.mutator) f =
  let store = ctx.Ctx.store in
  let lh = m.Ctx.lh in
  let region lo hi =
    let addr = ref lo in
    while !addr < hi do
      let h = Ctx.read_int ctx m !addr in
      if Header.Int.is_forward h then begin
        f !addr (Header.Int.forward_addr h);
        (* Skip by the final copy's size: promotion leaves the body in
           place, so source and target footprints are identical. *)
        let th = Ctx.read_int ctx m (Header.Int.forward_addr h) in
        let final =
          if Header.Int.is_forward th then Header.Int.forward_addr th
          else Header.Int.forward_addr h
        in
        addr := !addr + Obj_repr.total_bytes store final
      end
      else addr := !addr + ((Header.Int.length_words h + 1) * 8)
    done
  in
  region lh.Local_heap.base lh.Local_heap.old_top;
  region lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr

(* Evacuate the condemned, still-unforwarded targets of [m]'s local
   forwarding words and retarget each word at the final to-space copy
   right away.  To-space objects never move within a cycle and every
   post-[start] promotion targets to-space, so once this has run for a
   vproc, no new condemned-target word can appear in its local heap —
   which is what lets the ratify barrier skip the walk for clean
   vprocs. *)
let keep_pass ctx (ev : Forward.evacuator) =
  let m = ev.Forward.m in
  walk_forward_words ctx m (fun src target ->
      if Ctx.from_space ctx ~large:false target then begin
        (if not (Header.Int.is_forward (Ctx.read_int ctx m target)) then
           ignore (Forward.evacuate ctx m ~dest:ev.Forward.dest target));
        let th = Ctx.read_int ctx m target in
        if Header.Int.is_forward th then
          Ctx.write_int ctx m src
            (Header.Int.forward (Header.Int.forward_addr th))
      end)

let keep_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  slice ctx st m Obs.Event.Retarget @@ fun () ->
  keep_pass ctx (evacuator ctx st m);
  st.Ctx.cg_keep_done.(m.Ctx.id) <- true

(* A vproc that tainted after its handshake would force the ratify
   barrier to stop it and rescan its full root set and local heap — the
   expensive part of the barrier.  Instead, while the cycle is otherwise
   quiescent, re-handshake it barrier-free: re-forward its roots and
   local heap (clearing every re-acquired from-space reference) and
   re-snapshot its taint, so the final barrier stops only vprocs
   dirtied *since*.  Rounds are bounded per vproc per cycle — a vproc
   that keeps re-tainting is eventually just stopped, so the cycle
   always terminates. *)
let max_reclean_rounds = 3

let reclean_slice ctx (st : Ctx.conc_state) (m : Ctx.mutator) =
  slice ctx st m Obs.Event.Handshake @@ fun () ->
  Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.handshake_cycles;
  Forward.forward_roots ctx (evacuator ctx st m);
  st.Ctx.cg_reclean.(m.Ctx.id) <- st.Ctx.cg_reclean.(m.Ctx.id) + 1;
  st.Ctx.cg_hs_taints.(m.Ctx.id) <- st.Ctx.cg_taints.(m.Ctx.id)

(* ------------------------------------------------------------------ *)
(* Ratify: the one short barrier that finishes the cycle               *)
(* ------------------------------------------------------------------ *)

let ratify ctx (st : Ctx.conc_state) =
  let cause = st.Ctx.cg_cause in
  let muts = ctx.Ctx.muts in
  let dirty_only = ctx.Ctx.params.Params.conc_ratify_dirty_only in
  (* One lead vproc executes the structural work (residual drain, global
     roots, release, sweep); every other vproc is stopped only if it got
     dirty since its handshake.  The lead is drawn FROM the dirty set
     when it is non-empty: a dirty vproc must stop anyway, so stopping
     no clean vproc keeps the entry wait bounded by the clock spread
     within the dirty set instead of the full min-to-max vproc skew.
     With nothing dirty the min-clock vproc ratifies alone and its entry
     wait is zero. *)
  let lead =
    match Array.find_opt (dirty st) muts with
    | Some d when dirty_only ->
        Forward.min_clock_vproc ~among:(dirty st) ~first:d ctx
    | _ -> Forward.min_clock_vproc ctx
  in
  let ratified =
    Array.map
      (fun (m : Ctx.mutator) ->
        (not dirty_only) || m.Ctx.id = lead.Ctx.id || dirty st m)
      muts
  in
  let is_ratified (m : Ctx.mutator) = ratified.(m.Ctx.id) in
  let iter_r f = Array.iter (fun m -> if is_ratified m then f m) muts in
  let n_ratified =
    Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 ratified
  in
  let ts = st.Ctx.cg_space in
  let evs = Array.map (evacuator ctx st) muts in
  let arrivals = Array.map (fun (m : Ctx.mutator) -> m.Ctx.now_ns) muts in
  let copied_before = Array.copy ts.Ctx.ts_copied_by in
  iter_r (fun m ->
      Ctx.coll_begin ctx m Gc_trace.Global ~cause ~t_ns:m.Ctx.now_ns);
  let t_sync = Forward.max_clock ~among:is_ratified ctx in
  (* Entry round: the straggler is the last ratified vproc to arrive —
     it alone bounded [t_sync] — and the wait is the spread it imposed
     on the earliest arrival. *)
  (let straggler = ref lead.Ctx.id and t_min = ref Float.infinity in
   Array.iter
     (fun (m : Ctx.mutator) ->
       if ratified.(m.Ctx.id) then begin
         if arrivals.(m.Ctx.id) >= t_sync then straggler := m.Ctx.id;
         if arrivals.(m.Ctx.id) < !t_min then t_min := arrivals.(m.Ctx.id)
       end)
     muts;
   Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:t_sync
     (Obs.Event.Conc_round
        {
          cycle = st.Ctx.cg_cycle;
          exit = false;
          straggler = !straggler;
          wait_ns = int_of_float (Float.max 0. (t_sync -. !t_min));
        }));
  iter_r (fun m ->
      Ctx.barrier_wait ctx m ~cause ~t_to:t_sync;
      Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.barrier_cycles;
      m.Ctx.in_gc <- true);
  (* With the dirty vprocs stopped, one pass suffices: the residual log
     and the rescan find everything the handshakes missed, and the
     Cheney loop closes the transitive to-space scan.  Clean vprocs need
     no rescan — their handshake cleared every from-space reference and
     the generation/store counters prove nothing was re-acquired. *)
  drain_all ctx st lead;
  iter_r (fun m -> Forward.forward_roots ctx evs.(m.Ctx.id));
  Roots.iter ctx.Ctx.global_roots evs.(lead.Ctx.id).Forward.cell;
  Forward.cheney ~among:is_ratified ~first:lead ctx ts evs;
  (* Conservative keep for the stopped vprocs (their mutation since the
     concurrent keep slice may reference from-space data the rescan just
     evacuated); skipped vprocs already ran [keep_slice] concurrently
     and provably gained no new condemned-target words since. *)
  iter_r (fun m -> keep_pass ctx evs.(m.Ctx.id));
  Forward.cheney ~among:is_ratified ~first:lead ctx ts evs;
  (* Pre-release audit (env CONC_GC_AUDIT, CI fuzz campaigns): before
     from-space is released, every root, proxy, local-heap field and
     local forwarding word of *every* vproc — skipped ones included —
     must point away from the condemned chunks.  A hit here is a
     soundness bug in the dirty-skip reasoning (some path re-acquired a
     from-space reference without tainting); it would otherwise surface
     only later, as heap corruption after the pages are reused.  All
     reads are uncharged: the audit must not advance any clock or bump
     any taint, so enabling it cannot change the schedule it audits. *)
  (if Sys.getenv_opt "CONC_GC_AUDIT" <> None then begin
     let store = ctx.Ctx.store in
     let peek = Sim_mem.Memory.get store.Store.mem in
     let condemned a = Ctx.from_space ctx ~large:false a in
     Array.iter
       (fun (m : Ctx.mutator) ->
         let bad what addr target =
           Printf.eprintf "AUDIT v%d %s %#x -> condemned %#x (ratified=%b)\n%!"
             m.Ctx.id what addr target ratified.(m.Ctx.id)
         in
         let check what addr v =
           if Value.is_ptr v && condemned (Value.to_ptr v) then
             bad what addr (Value.to_ptr v)
         in
         Roots.iter m.Ctx.roots (fun c -> check "root" 0 (Roots.get c));
         Roots.iter m.Ctx.proxies (fun c -> check "proxy" 0 (Roots.get c));
         let lh = m.Ctx.lh in
         let fields lo hi =
           Forward.walk_objects store ~lo ~hi (fun addr ->
               Obj_repr.iter_pointer_slots store addr (fun fa ->
                   check "field" addr (Value.of_word (peek fa))))
         in
         fields lh.Local_heap.base lh.Local_heap.old_top;
         fields lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr;
         let words lo hi =
           let addr = ref lo in
           while !addr < hi do
             let h = peek !addr in
             if Header.is_forward h then begin
               let target = Header.forward_addr h in
               if condemned target then bad "fwdword" !addr target;
               let th = peek target in
               let final =
                 if Header.is_forward th then Header.forward_addr th
                 else target
               in
               addr := !addr + Obj_repr.total_bytes store final
             end
             else addr := !addr + ((Header.length_words h + 1) * 8)
           done
         in
         words lh.Local_heap.base lh.Local_heap.old_top;
         words lh.Local_heap.nursery_base lh.Local_heap.alloc_ptr)
       muts;
     Roots.iter ctx.Ctx.global_roots (fun c ->
         let v = Roots.get c in
         if Value.is_ptr v && condemned (Value.to_ptr v) then
           Printf.eprintf "AUDIT global root -> condemned %#x\n%!"
             (Value.to_ptr v))
   end);
  Forward.release ctx ts ~lead;
  let t_exit = Forward.max_clock ~among:is_ratified ctx in
  (* Exit round: the straggler is the ratified vproc whose in-barrier
     work ran longest (it bounded [t_exit]); everyone else's wait is the
     time they idled for it.  The whole barrier span [t_sync, t_exit]
     is also recorded as one Exit-phase interval so gcprof can attribute
     it within the cycle timeline. *)
  (let straggler = ref lead.Ctx.id and t_min = ref Float.infinity in
   Array.iter
     (fun (m : Ctx.mutator) ->
       if ratified.(m.Ctx.id) then begin
         if m.Ctx.now_ns >= t_exit then straggler := m.Ctx.id;
         if m.Ctx.now_ns < !t_min then t_min := m.Ctx.now_ns
       end)
     muts;
   Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:t_exit
     (Obs.Event.Conc_round
        {
          cycle = st.Ctx.cg_cycle;
          exit = true;
          straggler = !straggler;
          wait_ns = int_of_float (Float.max 0. (t_exit -. !t_min));
        }));
  Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:t_exit
    (Obs.Event.Conc_phase
       {
         cycle = st.Ctx.cg_cycle;
         phase = Obs.Event.Exit;
         dur_ns = int_of_float (Float.max 0. (t_exit -. t_sync));
       });
  iter_r (fun m ->
      Ctx.barrier_wait ctx m ~cause ~t_to:t_exit;
      m.Ctx.in_gc <- false);
  iter_r (fun m ->
      let bytes = copied st m - copied_before.(m.Ctx.id) in
      Ctx.coll_end ctx m Gc_trace.Global ~cause ~t_start:arrivals.(m.Ctx.id)
        ~t_end:m.Ctx.now_ns ~bytes);
  Array.iter
    (fun (m : Ctx.mutator) ->
      Metrics.record_ratify ctx.Ctx.metrics ~vproc:m.Ctx.id
        ~skipped:(not ratified.(m.Ctx.id)))
    muts;
  Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:lead.Ctx.now_ns
    (Obs.Event.Conc_ratify
       {
         cycle = st.Ctx.cg_cycle;
         ratified = n_ratified;
         skipped = Array.length muts - n_ratified;
       });
  Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:lead.Ctx.now_ns
    (Obs.Event.Conc_cycle
       {
         cycle = st.Ctx.cg_cycle;
         dur_ns = int_of_float (lead.Ctx.now_ns -. st.Ctx.cg_t_start);
         slices = st.Ctx.cg_slices;
       });
  ctx.Ctx.conc <- None;
  Ctx.finish_global ctx ~collector:"concurrent GC" ~copied_by:ts.Ctx.ts_copied_by

(* ------------------------------------------------------------------ *)
(* Driver API                                                          *)
(* ------------------------------------------------------------------ *)

let start ?(cause = Obs.Gc_cause.Forced) ctx =
  if not (active ctx) then begin
    Ctx.enter_collection ctx;
    let m = Forward.min_clock_vproc ctx in
    let n = Ctx.n_vprocs ctx in
    let st =
      {
        Ctx.cg_cause = cause;
        cg_space = Forward.condemn ctx;
        cg_log = Remember.create ();
        cg_drain = [||];
        cg_drain_pos = 0;
        cg_entered = Array.make n false;
        cg_keep_done = Array.make n false;
        cg_taints = Array.make n 0;
        cg_hs_taints = Array.make n 0;
        cg_reclean = Array.make n 0;
        cg_t_start = m.Ctx.now_ns;
        cg_slices = 0;
        cg_cycle = ctx.Ctx.stats.Gc_stats.global_count;
      }
    in
    ctx.Ctx.conc <- Some st;
    (* Condemning is a flag flip per chunk plus one pool-level sync. *)
    slice ctx st m Obs.Event.Mark @@ fun () ->
    Ctx.charge_work ctx m
      ~cycles:
        (ctx.Ctx.params.Params.chunk_local_sync_cycles
        +. (4. *. float_of_int (List.length st.Ctx.cg_space.Ctx.ts_from)))
  end

let step ctx =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      st.Ctx.cg_slices <- st.Ctx.cg_slices + 1;
      let m = Forward.min_clock_vproc ctx in
      if not st.Ctx.cg_entered.(m.Ctx.id) then begin
        handshake ctx st m;
        true
      end
      else if Forward.pending ctx st.Ctx.cg_space then begin
        evacuate_slice ctx st m;
        true
      end
      else if drain_pending st || Remember.cardinal st.Ctx.cg_log > 0 then begin
        drain_slice ctx st m;
        true
      end
      else if not st.Ctx.cg_keep_done.(m.Ctx.id) then begin
        keep_slice ctx st m;
        true
      end
      else begin
        (* A vproc whose clock never became the minimum may still be
           unhandshaken or keep-pending; bring it in before ratifying. *)
        match
          Array.find_opt
            (fun (mm : Ctx.mutator) -> not st.Ctx.cg_entered.(mm.Ctx.id))
            ctx.Ctx.muts
        with
        | Some mm ->
            handshake ctx st mm;
            true
        | None -> (
            match
              Array.find_opt
                (fun (mm : Ctx.mutator) -> not st.Ctx.cg_keep_done.(mm.Ctx.id))
                ctx.Ctx.muts
            with
            | Some mm ->
                keep_slice ctx st mm;
                true
            | None -> (
                (* Everything else is quiescent: re-clean tainted vprocs
                   concurrently (bounded rounds) so the ratify barrier
                   finds as few dirty vprocs as possible. *)
                match
                  (if ctx.Ctx.params.Params.conc_ratify_dirty_only then
                     Array.find_opt
                       (fun (mm : Ctx.mutator) ->
                         dirty st mm
                         && st.Ctx.cg_reclean.(mm.Ctx.id) < max_reclean_rounds)
                       ctx.Ctx.muts
                   else None)
                with
                | Some mm ->
                    reclean_slice ctx st mm;
                    true
                | None ->
                    ratify ctx st;
                    false))
      end

(* An assist slice on [m], for parallel dispatch: only evacuation work
   (handshakes, drains and the ratify stay with the lead slice), and
   only once [m] itself has handshaken — an unentered vproc still owes
   its local collections first. *)
let assist ctx (m : Ctx.mutator) =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      if st.Ctx.cg_entered.(m.Ctx.id) && Forward.pending ctx st.Ctx.cg_space
      then begin
        st.Ctx.cg_slices <- st.Ctx.cg_slices + 1;
        evacuate_slice ctx st m;
        true
      end
      else false

let step_turn ctx ~idle =
  match ctx.Ctx.conc with
  | None -> false
  | Some st ->
      let lead = Forward.min_clock_vproc ctx in
      (* Assists may only consume idle time that has already passed for
         some other vproc: a vproc behind the virtual-time frontier (the
         max clock) is provably idle over [now, frontier] and its assist
         work is free; advancing a vproc beyond the frontier would
         fabricate delay — inflating ratify skew and postponing whatever
         becomes runnable next — so such vprocs sit slices out.  Clock
         overshoot is thereby bounded by one slice past the frontier. *)
      let frontier = Forward.max_clock ctx in
      let in_flight = step ctx in
      let extra = ctx.Ctx.params.Params.conc_parallel_slices - 1 in
      if in_flight && extra > 0 then begin
        let assists = ref 0 in
        Array.iter
          (fun (m : Ctx.mutator) ->
            if
              !assists < extra
              && m.Ctx.id <> lead.Ctx.id
              && m.Ctx.now_ns < frontier
              && idle m.Ctx.id
              && assist ctx m
            then incr assists)
          ctx.Ctx.muts;
        if !assists > 0 then
          Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id
            ~t_ns:lead.Ctx.now_ns
            (Obs.Event.Conc_slices
               { cycle = st.Ctx.cg_cycle; count = 1 + !assists })
      end;
      in_flight

let finish ctx =
  while step ctx do
    ()
  done

let run ?cause ctx =
  start ?cause ctx;
  finish ctx
