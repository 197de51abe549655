open Heap
open Sim_mem

type dest = { alloc_dst : int -> int; on_copy : int -> int -> unit }

let local_dest ctx m ~bump ~limit ~on_copy =
  ignore ctx;
  {
    alloc_dst =
      (fun bytes ->
        let a = !bump in
        if a + bytes > limit then
          failwith
            (Printf.sprintf
               "minor GC copy space overflow on vproc %d (%#x + %d > %#x)"
               m.Ctx.id a bytes limit);
        bump := a + bytes;
        a);
    on_copy;
  }

(* [global_dest]'s slow path: the current chunk is full, or the object
   needs a large-object region.  Either is a synchronization the vproc
   pays for, and may push the heap over its collection budget. *)
let global_alloc_slow ctx m bytes =
  let addr, how =
    Global_heap.alloc ctx.Ctx.global ~vproc:m.Ctx.id ~node:m.Ctx.node ~bytes
  in
  (match how with
  | `Same_chunk -> ()
  | `Large ->
      (* A dedicated page run: registering it is a global
         synchronization, like a fresh chunk.  Born during a concurrent
         cycle it is born marked ("allocate black"): the ratify sweep
         frees unmarked larges, and a fresh one may be referenced only
         OCaml-side (a register or root added after the owner's
         handshake), where no read-taint or rescan would ever reach it.
         Birth-marking consumes the first-mark that triggers the field
         scan in [evacuate], so the caller must get the pointer fields
         forwarded itself (see [Alloc.alloc_global]). *)
      (if ctx.Ctx.conc <> None then
         ignore (Global_heap.mark_large ctx.Ctx.global addr));
      Ctx.charge_work ctx m
        ~cycles:ctx.Ctx.params.Params.chunk_global_sync_cycles;
      if
        (not ctx.Ctx.global_gc_pending)
        && Global_heap.in_use_bytes ctx.Ctx.global
           > ctx.Ctx.global_budget_bytes
      then Ctx.request_global_gc ctx
  | `New_chunk (c, provenance) ->
      Metrics.record_chunk_acquire ctx.Ctx.metrics ~vproc:m.Ctx.id;
      Obs.Recorder.record ctx.Ctx.obs ~vproc:m.Ctx.id ~t_ns:m.Ctx.now_ns
        (Obs.Event.Chunk_acquire
           {
             node = c.Sim_mem.Chunk.home_node;
             fresh = (provenance = `Fresh);
           });
      let cycles =
        match provenance with
        | `Reused -> ctx.Ctx.params.Params.chunk_local_sync_cycles
        | `Fresh -> ctx.Ctx.params.Params.chunk_global_sync_cycles
      in
      Ctx.charge_work ctx m ~cycles;
      if
        (not ctx.Ctx.global_gc_pending)
        && Global_heap.in_use_bytes ctx.Ctx.global
           > ctx.Ctx.global_budget_bytes
      then Ctx.request_global_gc ctx);
  addr

let global_dest ctx m ~on_copy =
  {
    alloc_dst =
      (fun bytes ->
        let addr =
          Global_heap.alloc_in_current ctx.Ctx.global ~vproc:m.Ctx.id ~bytes
        in
        if addr >= 0 then addr else global_alloc_slow ctx m bytes);
    on_copy;
  }

(* Fault-injection hook for the model-differential fuzzer: when set to
   [n > 0], every [n]th evacuation copies only the header and leaves the
   body words stale — a seeded forwarding bug the checker must catch and
   the shrinker must minimize.  Never enabled outside tests. *)
let test_corrupt_copy = ref 0
let corrupt_countdown = ref 0

let set_test_corrupt_copy n =
  test_corrupt_copy := n;
  corrupt_countdown := n

let copy_for_evacuation store ~src ~dst =
  if !test_corrupt_copy > 0 then begin
    decr corrupt_countdown;
    if !corrupt_countdown <= 0 then begin
      corrupt_countdown := !test_corrupt_copy;
      (* The seeded bug: header moves, fields do not. *)
      Sim_mem.Memory.set store.Store.mem dst
        (Sim_mem.Memory.get store.Store.mem src)
    end
    else ignore (Obj_repr.copy_object store ~src ~dst)
  end
  else ignore (Obj_repr.copy_object store ~src ~dst)

let evacuate ctx m ~dest src =
  let h = Ctx.read_int ctx m src in
  if Header.Int.is_forward h then Header.Int.forward_addr h
  else
    let store = ctx.Ctx.store in
    match Heap_index.region store.Store.index src with
    | Heap_index.Large l ->
        (* Large objects are not copied: mark them live; the first
           marking reports the object so the caller scans its fields
           exactly once. *)
        if Global_heap.mark l then
          dest.on_copy src ((Header.Int.length_words h + 1) * 8);
        src
    | Heap_index.Free | Heap_index.Local _ | Heap_index.Global_chunk _ ->
        let bytes = (Header.Int.length_words h + 1) * 8 in
        let dst = dest.alloc_dst bytes in
        if Obs.Recorder.enabled ctx.Ctx.obs then
          Obs.Recorder.record_copy ctx.Ctx.obs
            ~src_node:(Sim_mem.Memory.node_of_addr store.Store.mem src)
            ~dst_node:(Sim_mem.Memory.node_of_addr store.Store.mem dst)
            ~bytes;
        Ctx.bulk_touch ctx m ~addr:src ~bytes;
        Ctx.bulk_touch ctx m ~addr:dst ~bytes;
        copy_for_evacuation store ~src ~dst;
        Sim_mem.Memory.set_int store.Store.mem src (Header.Int.forward dst);
        Ctx.charge_work ctx m ~cycles:ctx.Ctx.params.Params.gc_obj_cycles;
        dest.on_copy dst bytes;
        dst

let forward_field ctx m ~dest ~in_from field_addr =
  let v = Value.of_int_word (Ctx.read_int ctx m field_addr) in
  if Value.is_ptr v then begin
    let target = Value.to_ptr v in
    if in_from target then begin
      let dst = evacuate ctx m ~dest target in
      Ctx.write_int ctx m field_addr (Value.to_int_word (Value.of_ptr dst))
    end
  end

let forward_cell ctx m ~dest ~in_from cell =
  let v = Roots.get cell in
  if Value.is_ptr v then begin
    let target = Value.to_ptr v in
    if in_from target then begin
      let dst = evacuate ctx m ~dest target in
      Roots.set cell (Value.of_ptr dst)
    end
  end;
  Ctx.charge_work ctx m ~cycles:2.

let scan_fields ctx m ~dest ~in_from =
  let field = forward_field ctx m ~dest ~in_from in
  fun addr -> Obj_repr.iter_pointer_slots ctx.Ctx.store addr field

(* The end of a forwarding chain from [a], followed at most 8 hops. *)
let rec live_copy mem a depth =
  let h = Sim_mem.Memory.get_int mem a in
  if Header.Int.is_forward h && depth < 8 then
    live_copy mem (Header.Int.forward_addr h) (depth + 1)
  else a

(* Walk the objects of [lo, hi), calling [f addr] for each object header
   (skipping objects that were promoted away and left forwarding words).
   Object sizes are read uncharged; the GC charges the field traffic it
   actually generates. *)
let walk_objects store ~lo ~hi f =
  let mem = store.Store.mem in
  let addr = ref lo in
  while !addr < hi do
    let h = Sim_mem.Memory.get_int mem !addr in
    if Header.Int.is_forward h then
      (* A promoted object: its body follows the forwarding word; size
         comes from the (live) global copy.  During a global collection
         that copy may itself already be forwarded into to-space —
         follow the chain to a real header (every copy has the same
         length). *)
      addr :=
        !addr
        + Obj_repr.total_bytes store
            (live_copy mem (Header.Int.forward_addr h) 0)
    else begin
      f !addr;
      addr := !addr + ((Header.Int.length_words h + 1) * 8)
    end
  done

(* ------------------------------------------------------------------ *)
(* To-space: the core both global collectors share                     *)
(* ------------------------------------------------------------------ *)

(* Parallel collector work is simulated by handing each unit to the vproc
   with the smallest virtual clock; on a tie [first] (default vproc 0)
   keeps it, then the lowest id wins. *)
let min_clock_vproc ?(among = fun _ -> true) ?first ctx =
  let muts = ctx.Ctx.muts in
  let best = ref (match first with Some m -> m | None -> muts.(0)) in
  for i = 0 to Array.length muts - 1 do
    let m = muts.(i) in
    if among m && m.Ctx.now_ns < !best.Ctx.now_ns then best := m
  done;
  !best

let max_clock ?(among = fun _ -> true) ctx =
  let muts = ctx.Ctx.muts in
  let t = ref 0. in
  for i = 0 to Array.length muts - 1 do
    if among muts.(i) then t := Float.max !t muts.(i).Ctx.now_ns
  done;
  !t

let condemn ctx =
  let from = Global_heap.take_all_in_use ctx.Ctx.global in
  List.iter (fun c -> c.Chunk.from_space <- true) from;
  {
    Ctx.ts_from = from;
    ts_large = Queue.create ();
    ts_copied_by = Array.make (Ctx.n_vprocs ctx) 0;
    ts_claims = Hashtbl.create 16;
  }

type evacuator = {
  m : Ctx.mutator;
  dest : dest;
  field : int -> unit;
  cell : Roots.cell -> unit;
}

let evacuator ctx (ts : Ctx.tospace) (m : Ctx.mutator) =
  let dest =
    global_dest ctx m ~on_copy:(fun dst bytes ->
        if Global_heap.is_large ctx.Ctx.global dst then
          Queue.add dst ts.Ctx.ts_large
        else
          ts.Ctx.ts_copied_by.(m.Ctx.id) <- ts.Ctx.ts_copied_by.(m.Ctx.id) + bytes)
  in
  let in_from = Ctx.from_space ctx ~large:true in
  {
    m;
    dest;
    field = forward_field ctx m ~dest ~in_from;
    cell = forward_cell ctx m ~dest ~in_from;
  }

(* Both local regions are walked: the nursery is empty after the STW
   entry minor, but live under the concurrent collector. *)
let forward_roots ctx ev =
  let store = ctx.Ctx.store and lh = ev.m.Ctx.lh in
  Roots.iter ev.m.Ctx.roots ev.cell;
  Roots.iter ev.m.Ctx.proxies ev.cell;
  let scan addr = Obj_repr.iter_pointer_slots store addr ev.field in
  walk_objects store ~lo:lh.Local_heap.base ~hi:lh.Local_heap.old_top scan;
  walk_objects store ~lo:lh.Local_heap.nursery_base
    ~hi:lh.Local_heap.alloc_ptr scan

(* A proxy's referent may legitimately point into its owner's local heap
   and is left to the owner's local collections. *)
let scan_tospace_object ctx ev addr =
  let store = ctx.Ctx.store in
  let h = Ctx.read_int ctx ev.m addr in
  Ctx.charge_work ctx ev.m ~cycles:ctx.Ctx.params.Params.gc_obj_cycles;
  (if Header.Int.id h = Header.proxy_id then begin
     let r = Proxy.referent store addr in
     if Value.is_ptr r then
       match Heap_index.region store.Store.index (Value.to_ptr r) with
       | Heap_index.Local _ -> ()
       | _ -> ev.field (Obj_repr.field_addr addr 0)
   end
   else Obj_repr.iter_pointer_slots store addr ev.field);
  (Header.Int.length_words h + 1) * 8

(* Promotions during a concurrent cycle reopen chunks, which is exactly
   what keeps mid-cycle-promoted data reachable. *)
let chunk_pending c = c.Chunk.scan_ptr < c.Chunk.alloc_ptr

let pending ctx (ts : Ctx.tospace) =
  (not (Queue.is_empty ts.Ctx.ts_large))
  || List.exists chunk_pending (Global_heap.in_use ctx.Ctx.global)

(* Prefer this vproc's current chunk, then unclaimed (or own-claimed)
   pending chunks near home, and only take over another vproc's claim
   when nothing else is pending — the takeover pays the claim sync again,
   and guarantees the scan always makes progress even if a claimant never
   returns. *)
let pick_chunk ctx (ts : Ctx.tospace) (m : Ctx.mutator) =
  let to_chunks = Global_heap.in_use ctx.Ctx.global in
  let mine c =
    chunk_pending c
    &&
    match Hashtbl.find_opt ts.Ctx.ts_claims c.Chunk.id with
    | Some v -> v = m.Ctx.id
    | None -> true
  in
  match Global_heap.current ctx.Ctx.global ~vproc:m.Ctx.id with
  | Some c when mine c -> Some c
  | _ -> (
      match
        List.find_opt (fun c -> mine c && c.Chunk.home_node = m.Ctx.node) to_chunks
      with
      | Some c -> Some c
      | None -> (
          match List.find_opt mine to_chunks with
          | Some c -> Some c
          | None -> List.find_opt chunk_pending to_chunks))

let cheney ?among ?first ctx ts evs =
  while pending ctx ts do
    let ev = evs.((min_clock_vproc ?among ?first ctx).Ctx.id) in
    match Queue.take_opt ts.Ctx.ts_large with
    | Some addr -> ignore (scan_tospace_object ctx ev addr)
    | None -> (
        match pick_chunk ctx ts ev.m with
        | None ->
            (* This vproc has nothing to claim; bring it level with the
               next clock so another vproc gets picked. *)
            Ctx.charge_work ctx ev.m ~cycles:100.
        | Some c ->
            let stop = c.Chunk.alloc_ptr in
            while c.Chunk.scan_ptr < stop do
              let sz = scan_tospace_object ctx ev c.Chunk.scan_ptr in
              c.Chunk.scan_ptr <- c.Chunk.scan_ptr + sz
            done)
  done

let release ctx (ts : Ctx.tospace) ~(lead : Ctx.mutator) =
  List.iter
    (fun c ->
      Obs.Recorder.record ctx.Ctx.obs ~vproc:lead.Ctx.id ~t_ns:lead.Ctx.now_ns
        (Obs.Event.Chunk_release { node = c.Chunk.home_node });
      Chunk.release (Global_heap.pool ctx.Ctx.global) c)
    ts.Ctx.ts_from;
  ts.Ctx.ts_from <- [];
  ignore (Global_heap.sweep_large ctx.Ctx.global)
