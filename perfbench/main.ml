(* The repo benchmark.  One process runs one workload:

     main.exe --workload fig9-cold|long-trace|farm-mixed --seed N
              --seconds S --trace 0|1 [--pin]

   It prints every metric by name with its unit, then, as the last line
   of standard output, one JSON object: {"correct", "attempted",
   "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
   ones; with --trace 1 the run also replays the workload under spans
   and reports the per-layer ones, writing the spans as a Chrome trace
   under .perfbench/.  --pin rewrites the workload's pinned outputs in
   perfbench/expected.json instead of checking them.  See NOTES.md. *)

open Perfbench_kit
open Bench_common

let usage () =
  prerr_endline
    "usage: main.exe --workload fig9-cold|long-trace|farm-mixed --seed N --seconds S \
     --trace 0|1 [--pin]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  pin : bool;
}

let pinned_file = "perfbench/expected.json"

let parse argv =
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s wants an integer, got %S\n" name v;
      usage ()
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
      go { a with seconds = float_of_int (int_arg "--seconds" v) } rest
    | "--trace" :: v :: rest -> go { a with trace = int_arg "--trace" v <> 0 } rest
    | "--pin" :: rest -> go { a with pin = true } rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  let a =
    go
      { workload = ""; seed = 1; seconds = 10.; trace = false; pin = false }
      (List.tl (Array.to_list argv))
  in
  if a.workload = "" || a.seconds <= 0. then usage ();
  a

let read_file file =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let load_pinned file =
  if Sys.file_exists file then Tally.Pinned.of_json (Obs_json.parse (read_file file))
  else Tally.Pinned.empty ()

let json_result ~tally metrics =
  Obs_json.to_string
    (Obs_json.Obj
       [ ("correct", Obs_json.Bool (Tally.failed tally = 0));
         ("attempted", Obs_json.num_int (Tally.attempted tally));
         ("failed", Obs_json.num_int (Tally.failed tally));
         ( "metrics",
           Obs_json.Obj
             (List.map
                (fun x ->
                  ( x.m_name,
                    Obs_json.Obj [ ("value", Obs_json.Num x.value); ("unit", Obs_json.Str x.unit_) ] ))
                metrics) ) ])

let print_block title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-44s %16.6f %s\n" x.m_name x.value x.unit_) metrics

let () =
  let a = parse Sys.argv in
  let tally = Tally.create () in
  let pinned = if a.pin then Tally.Pinned.empty () else load_pinned pinned_file in
  let run =
    match a.workload with
    | "fig9-cold" -> Bench_fig9.run
    | "long-trace" -> Bench_long.run
    | "farm-mixed" -> Bench_farm.run ~seed:a.seed
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      usage ()
  in
  let r = run ~seconds:a.seconds ~traced:a.trace ~tally ~pinned ~pin:a.pin in
  if a.pin then begin
    let all = load_pinned pinned_file in
    (match Hashtbl.find_opt pinned a.workload with
    | Some tbl -> Hashtbl.replace all a.workload tbl
    | None -> ());
    let oc = open_out pinned_file in
    output_string oc (Obs_json.to_string (Tally.Pinned.to_json all) ^ "\n");
    close_out oc;
    Printf.eprintf "pinned %s outputs in %s\n" a.workload pinned_file
  end;
  let factor = Probe.host_factor host in
  let e2e = normalise ~factor r.e2e in
  Printf.printf "workload %s, seed %d, %.0f s\n" a.workload a.seed a.seconds;
  print_block "end to end, as measured (host time unless marked sim):" r.shown;
  Printf.printf "  %-44s %16.6f %s\n"
    (Printf.sprintf "host_factor (median of %d probes)" (List.length (Probe.samples host)))
    factor "x";
  print_block "end to end, host-normalised (reported):" e2e;
  Printf.printf "  %-44s %16.6f %s\n" "fail_ratio" (Tally.fail_ratio tally) "failed/attempted";
  List.iter (fun w -> Printf.printf "  FAILED: %s\n" w) (Tally.reasons tally);
  if a.trace then begin
    print_block "per layer (traced run):" r.layers;
    Printf.printf "spans written to %s\n" (write_spans ~workload:a.workload ~seed:a.seed)
  end;
  print_endline (json_result ~tally (if a.trace then r.layers else e2e))
