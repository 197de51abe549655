(* Host allocation on the simulated memory-access path.  Every load and
   store the simulator models goes through these calls, so a boxed
   float, int64, tuple or closure here costs host words on every
   simulated access.  The bounds hold whether or not the compiler may
   inline across modules. *)

open Heap
open Manticore_gc

let calls = 10_000

(* Host words allocated per call of [f], on a context [f] has already
   warmed once. *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* No allocation at all, up to the measurement's own few words. *)
let none = 0.01

(* One boxed float: the store into the vproc's clock. *)
let clock_store = 2.01

let check_words name bound f =
  let w = words_per_call f in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f words/call <= %.2f" name w bound)
    true (w <= bound)

let test_cache () =
  let c = Numa.Cache.create ~size_kb:64 ~line_bytes:64 in
  (* Four lines of one set: every probe hits, and all but the first
     reorder the ways. *)
  let i = ref 0 in
  check_words "Cache.access" none (fun () ->
      incr i;
      ignore (Numa.Cache.access c ((!i land 3) * 64 * 256)))

let test_cost_model () =
  let cm =
    Numa.Cost_model.create Numa.Machines.amd48 ~n_vprocs:1
      ~vproc_node:(fun _ -> 0)
  in
  check_words "Cost_model.access (L2 hit)" none (fun () ->
      ignore
        (Numa.Cost_model.access cm ~vproc:0 ~dst_node:0 ~addr:0x1000 ~bytes:8
           ~now_ns:0.))

(* Every call touches a line no cache has seen, so each one fills from
   memory through the bank (local) or the bank and a link (remote). *)
let test_cost_model_miss () =
  let cm =
    Numa.Cost_model.create Numa.Machines.amd48 ~n_vprocs:1
      ~vproc_node:(fun _ -> 0)
  in
  let line = ref 0 in
  let next () =
    incr line;
    !line * 64
  in
  List.iter
    (fun (where, dst_node) ->
      check_words
        (Printf.sprintf "Cost_model.access (%s L3 miss)" where)
        none
        (fun () ->
          ignore
            (Numa.Cost_model.access cm ~vproc:0 ~dst_node ~addr:(next ())
               ~bytes:8 ~now_ns:0.));
      check_words
        (Printf.sprintf "Cost_model.bulk (%s L3 miss)" where)
        none
        (fun () ->
          ignore
            (Numa.Cost_model.bulk cm ~vproc:0 ~dst_node ~addr:(next ())
               ~bytes:64 ~now_ns:0.)))
    [ ("local", 0); ("remote", 7) ]

let test_ctx () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Alloc.alloc_vector ctx m [| Value.of_int 7; Value.of_int 8 |] in
  let p = Value.to_ptr v in
  check_words "Ctx.get_field (immediate)" clock_store (fun () ->
      ignore (Ctx.get_field ctx m p 0));
  check_words "Ctx.resolve (unforwarded)" clock_store (fun () ->
      ignore (Ctx.resolve ctx m v));
  check_words "Ctx.charge_work" clock_store (fun () ->
      Ctx.charge_work ctx m ~cycles:3.)

(* The concurrent collector's read-taint classifies every mutator load
   while a cycle is active; the page-table classifier it uses must add
   no host words to the load. *)
let test_ctx_during_cycle () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let g =
    Promote.value ctx m
      (Alloc.alloc_vector ctx m [| Value.of_int 7; Value.of_int 8 |])
  in
  let cell = Roots.add m.Ctx.roots g in
  let p = Value.to_ptr g in
  let read () = ignore (Ctx.read_word ctx m p) in
  let field () = ignore (Ctx.get_field ctx m p 0) in
  let idle_read = words_per_call read and idle_field = words_per_call field in
  Concurrent_gc.start ctx;
  Alcotest.(check bool) "the word is condemned" true
    (Ctx.from_space ctx ~large:false p);
  check_words "Ctx.read_word (condemned, cycle active)" (idle_read +. none)
    read;
  check_words "Ctx.get_field (condemned, cycle active)" (idle_field +. none)
    field;
  Concurrent_gc.finish ctx;
  Roots.remove m.Ctx.roots cell

(* [n] clock stores: one per charge the call makes. *)
let clock_stores n = (float_of_int n *. 2.) +. none

(* Evacuation, the copying collectors' inner loop.  Sources are
   three-word vectors in a global chunk of vproc 1; copies bump vproc
   0's current chunk, which is large enough that the measured calls
   never acquire another. *)
let evac_params =
  { Gc_util.small_params with Params.chunk_bytes = 1024 * 1024;
    capacity_bytes = 16 * 1024 * 1024;
    global_budget_per_vproc = 4 * 1024 * 1024 }

let evac_sources ctx n =
  let store = ctx.Ctx.store in
  Array.init n (fun i ->
      let addr, _ =
        Global_heap.alloc ctx.Ctx.global ~vproc:1 ~node:0 ~bytes:24
      in
      Obj_repr.init_vector store ~addr [| Value.of_int i; Value.of_int 1 |];
      addr)

let test_evacuate () =
  let ctx = Gc_util.mk_ctx ~params:evac_params () in
  let m = Ctx.mutator ctx 0 in
  let dest = Forward.global_dest ctx m ~on_copy:(fun _ _ -> ()) in
  let srcs = evac_sources ctx (calls + 1) in
  let i = ref 0 in
  (* Header read, two bulk touches, the per-object work charge. *)
  check_words "Forward.evacuate (copy)" (clock_stores 4) (fun () ->
      ignore (Forward.evacuate ctx m ~dest srcs.(!i));
      incr i);
  (* A holder's field points at a fresh source each call. *)
  let targets = evac_sources ctx (calls + 1) in
  let slot = Obj_repr.field_addr (evac_sources ctx 1).(0) 0 in
  let in_from _ = true in
  let j = ref 0 in
  check_words "Forward.forward_field (from-space pointer)" (clock_stores 6)
    (fun () ->
      Sim_mem.Memory.set_int ctx.Ctx.store.Store.mem slot targets.(!j);
      incr j;
      Forward.forward_field ctx m ~dest ~in_from slot)

(* The scheduler's move choice at [n] vprocs: the last vproc holds one
   work item, and every other vproc is an idle thief whose hunt finds
   it.  The thieves' clocks are ahead, so the owner's pop wins.  The
   hunts allocate nothing, so the words are the winning move's alone. *)
let move_choice_words n =
  let ctx =
    Ctx.create ~params:Gc_util.small_params ~machine:Numa.Machines.amd48
      ~n_vprocs:n ~policy:Sim_mem.Page_policy.Local ()
  in
  List.map
    (fun steal_policy ->
      let rt = Runtime.Sched.create ~steal_policy ctx in
      let owner = Ctx.mutator ctx (n - 1) in
      ignore (Runtime.Sched.spawn rt owner ~env:[||] (fun _ _ -> Value.unit));
      Array.iter
        (fun (m : Ctx.mutator) -> if m != owner then m.Ctx.now_ns <- 1e6)
        ctx.Ctx.muts;
      words_per_call (fun () -> ignore (Runtime.Sched.next_move rt)))
    [ Runtime.Sched.Random_victim; Runtime.Sched.Near_first ]

let test_next_move () =
  let at8 = move_choice_words 8 and at48 = move_choice_words 48 in
  List.iter2
    (fun w8 w48 ->
      Alcotest.(check bool)
        (Printf.sprintf
           "next_move: %.3f words/call at 48 vprocs <= %.3f at 8, <= 4" w48
           w8)
        true
        (w48 <= w8 +. none && w48 <= 4. +. none))
    at8 at48

let suite =
  ( "host-alloc",
    [
      Alcotest.test_case "cache lookup allocates nothing" `Quick test_cache;
      Alcotest.test_case "cost model L2 hit allocates nothing" `Quick
        test_cost_model;
      Alcotest.test_case "cost model L3 miss allocates nothing" `Quick
        test_cost_model_miss;
      Alcotest.test_case "charged reads allocate only the clock store" `Quick
        test_ctx;
      Alcotest.test_case "concurrent read-taint allocates nothing" `Quick
        test_ctx_during_cycle;
      Alcotest.test_case "evacuation allocates only clock stores" `Quick
        test_evacuate;
      Alcotest.test_case "move choice does not grow with vprocs" `Quick
        test_next_move;
    ] )
