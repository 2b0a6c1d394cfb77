(* Tracked performance benchmark for the cycle engine.

   Runs the cycle-level core end-to-end on the full workload catalog and
   reports simulated-instructions-per-second and GC minor words per
   simulated cycle, then writes the numbers to BENCH_perf.json at the
   repo root.  The committed file is the perf trajectory: every PR
   re-runs the benchmark and compares against the previous numbers.

   The file also carries a `sampled' section: one long trace
   (pointer_chase at 10M micro-ops by default) detail-simulated in full
   and then again through the interval sampler, recording the wall-clock
   speedup and the CPI error the sampler trades it for.

   Usage:
     dune exec --profile release bench/perf.exe                # measure + write
     dune exec --profile release bench/perf.exe -- -o FILE     # write elsewhere
     dune exec --profile release bench/perf.exe -- --compare BENCH_perf.json
                                                               # warn on regression
     dune exec --profile release bench/perf.exe -- --gate --compare FILE
                                                               # exit 1 on >15%
                                                               # aggregate regression
                                                               # or trace growth

   Per-workload comparisons stay advisory (wall-clock numbers depend on
   the runner, so individual swings are noisy); the gate fires only when
   the geometric-mean throughput over the whole catalog drops more than
   15%, which a hostile-runner blip cannot plausibly cause across 17
   workloads at once.  The gate also fires when the mean trace size per
   instruction (every heap word reachable from a [Workload.trace]
   result, by [Obj.reachable_words]) rises more than 15%: that count is
   exact, so no host load can move it.  Determinism of the *simulation*
   is separately enforced by bench/regress.exe; this benchmark only
   tracks how fast the engine gets through it. *)

let schema = "crisp-perf-2"
let workloads = Catalog.names
let default_instrs = 200_000
let default_sampled_instrs = 10_000_000
let sampled_workload = "pointer_chase"

type row = {
  name : string;
  instrs : int;
  cycles : int;
  seconds : float;
  instrs_per_sec : float;
  minor_words_per_cycle : float;
  trace_bytes_per_instr : float;
}

(* Best-of-[repeat] timing: a shared runner means any individual timed
   run can be slowed by unrelated host load, so the minimum over a few
   repeats is the stable estimate of what the engine costs.  The GC
   counter is deterministic per run and is read around the fastest
   repeat like any other. *)
let rec timed_runs ~cfg ~trace n best_seconds best_minor =
  if n = 0 then (best_seconds, best_minor)
  else begin
    let m0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (Cpu_core.run cfg trace);
    let t1 = Unix.gettimeofday () in
    let m1 = Gc.minor_words () in
    let seconds = t1 -. t0 in
    if seconds < best_seconds then timed_runs ~cfg ~trace (n - 1) seconds (m1 -. m0)
    else timed_runs ~cfg ~trace (n - 1) best_seconds best_minor
  end

let measure ~instrs ~repeat name =
  let w = Catalog.make ~input:Workload.Ref ~instrs name in
  let trace = Workload.trace w in
  let trace_bytes = Obj.reachable_words (Obj.repr trace) * (Sys.word_size / 8) in
  let cfg = Cpu_config.skylake in
  (* Warm run: caches the trace pages, JIT-free but branch predictors of
     the *host* settle; also triggers any one-time lazy setup. *)
  let stats = Cpu_core.run cfg trace in
  let seconds, minor = timed_runs ~cfg ~trace repeat infinity 0. in
  let cycles = stats.Cpu_stats.cycles in
  { name;
    instrs = stats.Cpu_stats.retired;
    cycles;
    seconds;
    instrs_per_sec = float_of_int stats.Cpu_stats.retired /. seconds;
    minor_words_per_cycle = minor /. float_of_int cycles;
    trace_bytes_per_instr =
      float_of_int trace_bytes /. float_of_int (max 1 (Executor.length trace)) }

let json_of_row r =
  Obs_json.Obj
    [ ("instrs", Obs_json.num_int r.instrs);
      ("cycles", Obs_json.num_int r.cycles);
      ("seconds", Obs_json.Num r.seconds);
      ("instrs_per_sec", Obs_json.Num r.instrs_per_sec);
      ("minor_words_per_cycle", Obs_json.Num r.minor_words_per_cycle);
      ("trace_bytes_per_instr", Obs_json.Num r.trace_bytes_per_instr) ]

(* Geometric mean of per-workload throughput: the catalog mixes 5x
   faster and slower engines, and an arithmetic mean would let the
   fastest workloads mask a regression everywhere else.  Trace bytes
   per instruction are averaged plainly: every workload traces the same
   budget. *)
let aggregate rows =
  let n = List.length rows in
  let log_sum =
    List.fold_left (fun a r -> a +. log r.instrs_per_sec) 0. rows
  in
  let total_cycles = List.fold_left (fun a r -> a + r.cycles) 0 rows in
  let total_minor =
    List.fold_left
      (fun a r -> a +. (r.minor_words_per_cycle *. float_of_int r.cycles))
      0. rows
  in
  ( exp (log_sum /. float_of_int n),
    total_minor /. float_of_int total_cycles,
    List.fold_left (fun a r -> a +. r.trace_bytes_per_instr) 0. rows /. float_of_int n )

(* ----- the sampled-vs-full headline ----- *)

type sampled_bench = {
  s_workload : string;
  s_instrs : int;
  s_config : string;
  full_seconds : float;
  full_cpi : float;
  sampled_seconds : float;
  sampled_cpi : float;
  sampled_ci95 : float;
  speedup : float;
  cpi_rel_error : float;
}

let measure_sampled ~instrs =
  let w = Catalog.make ~input:Workload.Ref ~instrs sampled_workload in
  let trace = Workload.trace w in
  let cfg = Cpu_config.skylake in
  let t0 = Unix.gettimeofday () in
  let full = Cpu_core.run cfg trace in
  let t1 = Unix.gettimeofday () in
  let sample = Sample_config.default in
  let t2 = Unix.gettimeofday () in
  let s = Sampler.run ~sample cfg trace in
  let t3 = Unix.gettimeofday () in
  let full_cpi =
    float_of_int full.Cpu_stats.cycles /. float_of_int full.Cpu_stats.retired
  in
  let full_seconds = t1 -. t0 and sampled_seconds = t3 -. t2 in
  { s_workload = sampled_workload;
    s_instrs = instrs;
    s_config = Sample_config.to_string sample;
    full_seconds;
    full_cpi;
    sampled_seconds;
    sampled_cpi = s.Sampler.cpi_mean;
    sampled_ci95 = s.Sampler.cpi_ci95;
    speedup = full_seconds /. sampled_seconds;
    cpi_rel_error = abs_float (s.Sampler.cpi_mean -. full_cpi) /. full_cpi }

let json_of_sampled s =
  Obs_json.Obj
    [ ("workload", Obs_json.Str s.s_workload);
      ("instrs", Obs_json.num_int s.s_instrs);
      ("sample", Obs_json.Str s.s_config);
      ("full_seconds", Obs_json.Num s.full_seconds);
      ("full_cpi", Obs_json.Num s.full_cpi);
      ("sampled_seconds", Obs_json.Num s.sampled_seconds);
      ("sampled_cpi", Obs_json.Num s.sampled_cpi);
      ("sampled_cpi_ci95", Obs_json.Num s.sampled_ci95);
      ("speedup", Obs_json.Num s.speedup);
      ("cpi_rel_error", Obs_json.Num s.cpi_rel_error) ]

let to_json ~instrs rows sampled =
  let agg_ips, agg_words, agg_bytes = aggregate rows in
  Obs_json.Obj
    ([ ("schema", Obs_json.Str schema);
       ("instrs", Obs_json.num_int instrs);
       ( "workloads",
         Obs_json.Obj (List.map (fun r -> (r.name, json_of_row r)) rows) );
       ( "aggregate",
         Obs_json.Obj
           [ ("instrs_per_sec", Obs_json.Num agg_ips);
             ("minor_words_per_cycle", Obs_json.Num agg_words);
             ("trace_bytes_per_instr", Obs_json.Num agg_bytes) ] ) ]
    @ match sampled with
      | None -> []
      | Some s -> [ ("sampled", json_of_sampled s) ])

(* ----- comparison against a committed baseline ----- *)

let member_float path json =
  let rec go json = function
    | [] -> Some (Obs_json.to_float json)
    | k :: rest -> (
      match Obs_json.member k json with
      | None -> None
      | Some j -> go j rest)
  in
  go json path

let baseline_ips json name =
  member_float [ "workloads"; name; "instrs_per_sec" ] json

(* Per-workload deltas are advisory; only the aggregate geomean gates.
   A baseline written by an older schema compares apples to oranges
   (different workload set, arithmetic-mean aggregate), so it is
   reported and skipped rather than gated on. *)
let compare_against ~file rows =
  let contents =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let json = Obs_json.parse contents in
  match Obs_json.member "schema" json with
  | Some (Obs_json.Str s) when s = schema ->
    List.iter
      (fun r ->
        match baseline_ips json r.name with
        | None -> Printf.printf "compare: %-14s no baseline entry\n" r.name
        | Some base ->
          let ratio = r.instrs_per_sec /. base in
          Printf.printf "compare: %-14s %9.0f -> %9.0f instrs/s (%+.1f%%)\n"
            r.name base r.instrs_per_sec
            (100. *. (ratio -. 1.));
          if ratio < 0.8 then
            Printf.printf "WARNING: %s regressed more than 20%% versus %s (%.2fx)\n"
              r.name file ratio)
      rows;
    let agg_ips, _, agg_bytes = aggregate rows in
    let throughput =
      match member_float [ "aggregate"; "instrs_per_sec" ] json with
      | None ->
        Printf.printf "compare: baseline has no aggregate entry\n";
        0
      | Some base ->
        let ratio = agg_ips /. base in
        Printf.printf "compare: %-14s %9.0f -> %9.0f instrs/s (%+.1f%%)\n"
          "aggregate" base agg_ips
          (100. *. (ratio -. 1.));
        if ratio < 0.85 then begin
          Printf.printf
            "REGRESSION: aggregate throughput dropped more than 15%% versus %s \
             (%.2fx)\n"
            file ratio;
          1
        end
        else 0
    in
    let trace_size =
      match member_float [ "aggregate"; "trace_bytes_per_instr" ] json with
      | None ->
        Printf.printf "compare: baseline has no aggregate trace size\n";
        0
      | Some base ->
        let ratio = agg_bytes /. base in
        Printf.printf "compare: %-14s %9.1f -> %9.1f trace B/instr (%+.1f%%)\n"
          "aggregate" base agg_bytes
          (100. *. (ratio -. 1.));
        if ratio > 1.15 then begin
          Printf.printf
            "REGRESSION: trace bytes per instruction rose more than 15%% versus %s \
             (%.2fx)\n"
            file ratio;
          1
        end
        else 0
    in
    throughput + trace_size
  | Some (Obs_json.Str s) ->
    Printf.printf "compare: baseline schema %s != %s, skipping comparison\n" s
      schema;
    0
  | _ ->
    Printf.printf "compare: baseline has no schema field, skipping comparison\n";
    0

let () =
  let output = ref "BENCH_perf.json" in
  let compare_file = ref None in
  let gate = ref false in
  let instrs = ref default_instrs in
  let repeat = ref 3 in
  let sampled_instrs = ref default_sampled_instrs in
  Arg.parse
    [ ("-o", Arg.Set_string output, "FILE output path (default BENCH_perf.json)");
      ( "--compare",
        Arg.String (fun f -> compare_file := Some f),
        "FILE previous BENCH_perf.json to compare against" );
      ( "--gate",
        Arg.Set gate,
        " exit 1 when aggregate throughput drops or trace size grows more than 15%" );
      ("-n", Arg.Set_int instrs, "N dynamic micro-ops per workload");
      ( "--repeat",
        Arg.Set_int repeat,
        "R timed runs per workload, keep fastest (default 3)" );
      ( "--sampled-instrs",
        Arg.Set_int sampled_instrs,
        "N micro-ops for the sampled-vs-full headline (default 10M; 0 skips it)"
      ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf [-o FILE] [--compare FILE] [--gate] [-n N] [--repeat R] \
     [--sampled-instrs N]";
  let rows = List.map (measure ~instrs:!instrs ~repeat:(max 1 !repeat)) workloads in
  List.iter
    (fun r ->
      Printf.printf
        "%-14s %8d instrs %9d cycles  %9.0f instrs/s  %6.2f minor words/cycle  \
         %5.1f trace B/instr\n"
        r.name r.instrs r.cycles r.instrs_per_sec r.minor_words_per_cycle
        r.trace_bytes_per_instr)
    rows;
  let agg_ips, agg_words, agg_bytes = aggregate rows in
  Printf.printf
    "%-14s %37s%9.0f instrs/s  %6.2f minor words/cycle  %5.1f trace B/instr  \
     (geomean; trace size: mean)\n"
    "aggregate" "" agg_ips agg_words agg_bytes;
  let sampled =
    if !sampled_instrs <= 0 then None
    else begin
      let s = measure_sampled ~instrs:!sampled_instrs in
      Printf.printf
        "sampled (%s, %d instrs, %s):\n\
        \  full %.2fs CPI %.4f | sampled %.2fs CPI %.4f ± %.4f | %.1fx \
         speedup, %.2f%% CPI error\n"
        s.s_workload s.s_instrs s.s_config s.full_seconds s.full_cpi
        s.sampled_seconds s.sampled_cpi s.sampled_ci95 s.speedup
        (100. *. s.cpi_rel_error);
      Some s
    end
  in
  let regressions =
    match !compare_file with
    | Some file when Sys.file_exists file -> compare_against ~file rows
    | Some file ->
      Printf.printf "compare: %s missing, skipping comparison\n" file;
      0
    | None -> 0
  in
  let oc = open_out_bin !output in
  output_string oc (Obs_json.to_string (to_json ~instrs:!instrs rows sampled));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !output;
  if !gate && regressions > 0 then exit 1
