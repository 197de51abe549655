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

let suite =
  ( "host-alloc",
    [
      Alcotest.test_case "cache lookup allocates nothing" `Quick test_cache;
      Alcotest.test_case "cost model L2 hit allocates nothing" `Quick
        test_cost_model;
      Alcotest.test_case "charged reads allocate only the clock store" `Quick
        test_ctx;
      Alcotest.test_case "concurrent read-taint allocates nothing" `Quick
        test_ctx_during_cycle;
    ] )
