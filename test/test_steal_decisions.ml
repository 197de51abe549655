(* Steal decisions, pinned.  A 48-vproc fork-join run under each steal
   policy: every thief's sequence of probed victims ([Steal_attempt]) and
   stolen-from victims ([Steal_success]), read back from the flight
   recorder, must match the pinned digest.  Any change to the random
   draws, the probe order or the tie-breaks shows up here; the move
   choice's host cost may change, its decisions may not. *)

open Heap
open Manticore_gc
open Runtime

let steal_log policy =
  let params =
    {
      Params.default with
      Params.capacity_bytes = 64 * 1024 * 1024;
      local_heap_bytes = 256 * 1024;
      chunk_bytes = 16 * 1024;
    }
  in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.amd48 ~n_vprocs:48
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let rt = Sched.create ~steal_policy:policy ~seed:23 ctx in
  let c = Sched.ctx rt in
  ignore
    (Sched.run rt ~main:(fun m ->
         let rec tree m depth =
           Ctx.charge_work c m ~cycles:20_000.;
           if depth = 0 then Value.of_int 1
           else
             let kids =
               List.init 2 (fun _ ->
                   Sched.spawn rt m ~env:[||] (fun m' _ -> tree m' (depth - 1)))
             in
             Value.of_int
               (List.fold_left
                  (fun acc f -> acc + Value.to_int (Sched.await rt m f))
                  0 kids)
         in
         tree m 8));
  let obs = ctx.Ctx.obs in
  let b = Buffer.create 4096 in
  let attempts = ref 0 and successes = ref 0 in
  for v = 0 to 47 do
    Alcotest.(check int)
      (Printf.sprintf "vproc %d ring dropped nothing" v)
      0
      (Obs.Recorder.dropped obs ~vproc:v);
    Printf.bprintf b "v%d:" v;
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Obs.Event.Steal_attempt { victim } ->
            incr attempts;
            Printf.bprintf b " a%d" victim
        | Obs.Event.Steal_success { victim } ->
            incr successes;
            Printf.bprintf b " s%d" victim
        | _ -> ())
      (Obs.Recorder.events obs ~vproc:v);
    Buffer.add_char b '\n'
  done;
  (!attempts, !successes, Digest.to_hex (Digest.string (Buffer.contents b)))

let check_policy policy expected () =
  let a, s, d = steal_log policy in
  Alcotest.(check string)
    "steal attempts, successes and per-thief victim sequences" expected
    (Printf.sprintf "%d attempts, %d successes, digest %s" a s d)

let suite =
  ( "steal-decisions",
    [
      Alcotest.test_case "random victim at 48 vprocs" `Quick
        (check_policy Sched.Random_victim
           "453 attempts, 141 successes, \
            digest 0904fbef8455d8301ae58609a2564df7");
      Alcotest.test_case "near first at 48 vprocs" `Quick
        (check_policy Sched.Near_first
           "523 attempts, 140 successes, \
            digest 3e5a8c7df1d370d95278abee72b7a8b6");
    ] )
