(* Host-time spans for the traced run: name, start, end and parent of
   each call the benchmark makes into a layer, kept in memory and
   written out when the run ends.  Untraced runs pay one branch per
   [enter]/[leave]. *)

let on = ref false

(* Parallel growable columns, one row per span. *)
let cap = ref 0
let name_of = ref [||]
let parent_of = ref [||]
let start_of = ref [||]
let end_of = ref [||]
let count = ref 0
let names : (string, int) Hashtbl.t = Hashtbl.create 16
let name_list = ref [||]
let open_span = ref (-1)
let origin = ref 0.

let now () = Unix.gettimeofday ()

(* OCaml words allocated so far: direct major allocations count in
   [major], promotions in both [major] and [promoted]. *)
let host_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let reset ~enabled =
  on := enabled;
  count := 0;
  open_span := -1;
  origin := now ()

let name id =
  match Hashtbl.find_opt names id with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names id i;
      name_list := Array.append !name_list [| id |];
      i

let grow () =
  let c = max 1024 (2 * !cap) in
  let extend a fill =
    let b = Array.make c fill in
    Array.blit a 0 b 0 !cap;
    b
  in
  name_of := extend !name_of 0;
  parent_of := extend !parent_of (-1);
  start_of := extend !start_of 0.;
  end_of := extend !end_of 0.;
  cap := c

(* [enter n] opens a span named by [name]'s id [n] under the innermost
   open span and returns its handle; [-1] when tracing is off. *)
let enter n =
  if not !on then -1
  else begin
    if !count = !cap then grow ();
    let i = !count in
    incr count;
    !name_of.(i) <- n;
    !parent_of.(i) <- !open_span;
    !start_of.(i) <- now ();
    open_span := i;
    i
  end

let leave i =
  if i >= 0 then begin
    !end_of.(i) <- now ();
    open_span := !parent_of.(i)
  end

(* Number of spans named [n] and their summed duration in seconds. *)
let total n =
  let k = ref 0 and s = ref 0. in
  for i = 0 to !count - 1 do
    if !name_of.(i) = n then begin
      incr k;
      s := !s +. (!end_of.(i) -. !start_of.(i))
    end
  done;
  (!k, !s)

let write path =
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs (Filename.dirname path);
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_s\tend_s\n";
  for i = 0 to !count - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" i !parent_of.(i)
      !name_list.(!name_of.(i))
      (!start_of.(i) -. !origin)
      (!end_of.(i) -. !origin)
  done;
  close_out oc
