(* The repository benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--arrival-seed N]

   Prints a human-readable report, then one JSON line with every
   end-to-end metric ([--trace 0]) or every per-layer metric
   ([--trace 1]).  With [--trace 1] the host spans are written to
   .bench_build/spans-NAME.tsv.  Exits 1 when an output check fails and 2 on bad
   arguments. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--arrival-seed N]";
  Printf.eprintf "workloads: %s\n"
    (String.concat ", " (List.map (fun w -> w.Bench_e2e.Workload.name) Bench_e2e.Workload.all));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k = Option.bind (get k) int_of_string_opt in
  match
    (Option.bind (get "workload") Bench_e2e.Workload.find, int "seed",
     int "seconds", int "trace")
  with
  | Some w, Some seed, Some seconds, Some (0 | 1 as trace) when seconds > 0 ->
      let arrival_seed = Option.value (int "arrival-seed") ~default:seed in
      let spans_out =
        if trace = 1 then
          Some (Filename.concat ".bench_build" ("spans-" ^ w.Bench_e2e.Workload.name ^ ".tsv"))
        else None
      in
      let r =
        Bench_e2e.Workload.run w ~seed ~arrival_seed ?spans_out
          ~seconds:(float_of_int seconds) ~trace:(trace = 1)
      in
      List.iter print_endline r.Bench_e2e.Workload.lines;
      print_endline (Bench_e2e.Workload.json r);
      if not r.Bench_e2e.Workload.correct then exit 1
  | _ -> usage ()
