(* Statistical (interval) sampling: functional fast-forward with
   microarchitectural warming between systematically-placed detail
   windows.  The CPI estimate is the mean over per-unit CPIs with a 95%
   confidence interval from the unit-to-unit variance, as in SMARTS. *)

type result = {
  config : Sample_config.t;
  cpi_mean : float;
  cpi_ci95 : float;
  unit_cpis : float array;
  stats : Cpu_stats.t;
  measured_instrs : int;
  total_instrs : int;
}

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let ci95 xs m =
  let u = Array.length xs in
  if u < 2 then 0.
  else begin
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    let variance = ss /. float_of_int (u - 1) in
    1.96 *. sqrt (variance /. float_of_int u)
  end

(* One systematic pass.  Unit [k] measures the [unit_len] instructions
   at the start of stride [k], with detailed warmup drawn from the tail
   of the previous stride; unit 0 therefore starts truly cold, exactly
   like the full run — measuring at stride starts keeps every
   instruction (including the cold prologue, which end-of-stride
   placement would systematically exclude) in the sampled population.
   The warm state (caches, predictors, prefetcher training) is threaded
   through fast-forward and detail windows alike. *)
let run ?criticality ~(sample : Sample_config.t) cfg (trace : Executor.t) =
  (match Sample_config.validate sample with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sampler.run: " ^ msg));
  (* Fast-forward warming fetches through the same layout as the
     detail windows. *)
  let layout = Cpu_core.layout_for ?criticality trace in
  let n = Executor.length trace in
  let span = sample.unit_len + sample.warmup_len in
  let units = max 1 (min sample.units (max 1 (n / span))) in
  let stride = n / units in
  let warm = Cpu_core.warm_create cfg in
  let unit_cpis = Array.make units 0. in
  let stats = ref Cpu_stats.zero in
  for k = 0 to units - 1 do
    let boundary = k * stride in
    let m = max (boundary - sample.warmup_len) (Cpu_core.warm_pos warm) in
    while Cpu_core.warm_pos warm < m do
      Cpu_core.warm_touch warm layout trace (Cpu_core.warm_pos warm)
    done;
    let st =
      Cpu_core.run_window ?criticality ~warm ~start:m ~warmup:(boundary - m)
        ~measure:sample.unit_len cfg trace
    in
    unit_cpis.(k) <-
      (if st.Cpu_stats.retired = 0 then 0.
       else float_of_int st.Cpu_stats.cycles /. float_of_int st.Cpu_stats.retired);
    stats := Cpu_stats.add !stats st
  done;
  let m = mean unit_cpis in
  { config = { sample with units };
    cpi_mean = m;
    cpi_ci95 = ci95 unit_cpis m;
    unit_cpis;
    stats = !stats;
    measured_instrs = !stats.Cpu_stats.retired;
    total_instrs = n }
