type sizes = {
  eval_instrs : int;
  train_instrs : int;
}

let default_sizes = { eval_instrs = 20_000; train_instrs = 15_000 }

let f = float_of_int

let stats_entries prefix (st : Cpu_stats.t) =
  let k name v = (prefix ^ "." ^ name, v) in
  let h = st.Cpu_stats.head_stalls in
  let m = st.Cpu_stats.mem in
  [ k "cycles" (f st.Cpu_stats.cycles);
    k "retired" (f st.retired);
    k "ipc" (Cpu_stats.ipc st);
    k "loads" (f st.loads);
    k "stores" (f st.stores);
    k "branches" (f st.branches);
    k "branch_mispredicts" (f st.branch_mispredicts);
    k "btb_misses" (f st.btb_misses);
    k "ras_mispredicts" (f st.ras_mispredicts);
    k "head_stalls.dram_load" (f h.Cpu_stats.dram_load);
    k "head_stalls.llc_load" (f h.llc_load);
    k "head_stalls.other_load" (f h.other_load);
    k "head_stalls.long_op" (f h.long_op);
    k "head_stalls.other" (f h.other);
    k "mlp_sum" st.mlp_sum;
    k "mlp_cycles" (f st.mlp_cycles);
    k "critical_retired" (f st.critical_retired);
    k "mem.l1d_hits" (f m.Memory_system.l1d_hits);
    k "mem.l1d_misses" (f m.l1d_misses);
    k "mem.llc_hits" (f m.llc_hits);
    k "mem.llc_misses" (f m.llc_misses);
    k "mem.l1i_hits" (f m.l1i_hits);
    k "mem.l1i_misses" (f m.l1i_misses);
    k "mem.dram_requests" (f m.dram_requests);
    k "mem.dram_row_hits" (f m.dram_row_hits);
    k "mem.prefetches_issued" (f m.prefetches_issued);
    k "mem.prefetch_hits_l1d" (f m.prefetch_hits_l1d);
    k "mem.prefetch_hits_llc" (f m.prefetch_hits_llc) ]

let tag_entries (outcome : Runner.outcome) =
  match outcome.Runner.tagging with
  | None -> []
  | Some t ->
    let slices = t.Tagger.slices in
    [ ("crisp.tag.static_count", f t.Tagger.static_count);
      ("crisp.tag.dynamic_ratio", t.Tagger.dynamic_ratio);
      ("crisp.tag.slices", f (List.length slices));
      ( "crisp.tag.dropped",
        f (List.length (List.filter (fun s -> s.Tagger.dropped) slices)) );
      ("crisp.tag.avg_load_slice_size", Tagger.avg_load_slice_size t);
      ( "crisp.tag.kept_pcs",
        f (List.fold_left (fun n s -> n + s.Tagger.static_size) 0 slices) ) ]

let obs_entries tracer =
  let counters =
    List.map (fun (k, v) -> ("obs." ^ k, f v)) (Obs_tracer.counters tracer)
  in
  let hists =
    List.concat_map
      (fun (k, h) ->
        [ ("obs.hist." ^ k ^ ".count", f (Obs_hist.count h));
          ("obs.hist." ^ k ^ ".sum", f (Obs_hist.sum h));
          ("obs.hist." ^ k ^ ".max", f (Obs_hist.max_value h)) ])
      (Obs_tracer.histograms tracer)
  in
  counters @ hists

let vector ?(cfg = Cpu_config.skylake) ~sizes name =
  let { eval_instrs; train_instrs } = sizes in
  let ooo = Runner.evaluate ~cfg ~eval_instrs ~train_instrs ~name Runner.Ooo in
  let crisp, tracer =
    Runner.traced ~cfg ~eval_instrs ~train_instrs ~name Runner.crisp_default
  in
  Obs_golden.normalise
    (stats_entries "ooo" ooo.Runner.stats
    @ stats_entries "crisp" crisp.Runner.stats
    @ tag_entries crisp
    @ obs_entries tracer)

let default_rtol key =
  let suffixed s = Filename.check_suffix key s in
  if suffixed ".ipc" || suffixed ".mlp_sum" || suffixed ".dynamic_ratio" then 1e-6
  else 0.

let path ~dir name = Filename.concat dir (name ^ ".json")

let meta ~sizes name =
  [ ("schema", "crisp-golden-1");
    ("workload", name);
    ("eval_instrs", string_of_int sizes.eval_instrs);
    ("train_instrs", string_of_int sizes.train_instrs) ]

let write ?cfg ~dir ~sizes name =
  let json =
    Obs_golden.to_json_string ~meta:(meta ~sizes name) (vector ?cfg ~sizes name)
  in
  let oc = open_out_bin (path ~dir name) in
  output_string oc json;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The static-predictor golden: one cross-workload vector scoring the
   profile-free Static_crit pass against the profiled tagger.  Counts
   are exact; the derived ratios get the same tiny tolerance as other
   float keys so a JSON round-trip can never register as drift. *)

let static_name = "static_crit"

let static_vector ?(cfg = Cpu_config.skylake) ~sizes () =
  let { eval_instrs; train_instrs } = sizes in
  Obs_golden.normalise
    (List.concat_map
       (fun name ->
         let wl = Catalog.make ~input:Workload.Ref ~instrs:eval_instrs name in
         let prediction = Static_crit.analyze wl in
         let outcome =
           Runner.evaluate ~cfg ~eval_instrs ~train_instrs ~name
             Runner.crisp_default
         in
         let tagging =
           match outcome.Runner.tagging with
           | Some t -> t
           | None -> assert false
         in
         let c = Static_crit.compare_tagging prediction tagging in
         let k key v = (name ^ "." ^ key, v) in
         [ k "candidates" (f (List.length prediction.Static_crit.candidates));
           k "predicted" (f c.Static_crit.predicted_pcs);
           k "tagged" (f c.Static_crit.tagged_pcs);
           k "overlap" (f c.Static_crit.overlap_pcs);
           k "precision" c.Static_crit.precision;
           k "recall" c.Static_crit.recall;
           k "jaccard" c.Static_crit.jaccard;
           k "load_roots" (f c.Static_crit.load_roots);
           k "load_roots_hit" (f c.Static_crit.load_roots_hit) ])
       Catalog.names)

let static_rtol key =
  let suffixed s = Filename.check_suffix key s in
  if suffixed ".precision" || suffixed ".recall" || suffixed ".jaccard" then 1e-6
  else 0.

let static_meta ~sizes =
  [ ("schema", "crisp-static-crit-1");
    ("eval_instrs", string_of_int sizes.eval_instrs);
    ("train_instrs", string_of_int sizes.train_instrs) ]

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Shared diff driver: [fresh] is only forced once the golden parses
   and its metadata matches, so a stale file reports the cheap problem
   without paying for a simulation. *)
let check_file ~file ~meta ~rtol_for fresh =
  if not (Sys.file_exists file) then
    Error
      (Printf.sprintf
         "%s: golden missing — regenerate with `dune exec bench/regress.exe -- \
          snapshot` and commit the result"
         file)
  else
    match Obs_golden.of_json_string (read_file file) with
    | exception e ->
      Error (Printf.sprintf "%s: unreadable golden: %s" file (Printexc.to_string e))
    | golden_meta, golden -> (
      let meta_problems =
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k golden_meta with
            | Some v' when v' = v -> None
            | Some v' ->
              Some (Printf.sprintf "meta %s: golden has %s, this run uses %s" k v' v)
            | None -> Some (Printf.sprintf "meta %s missing from golden" k))
          meta
      in
      if meta_problems <> [] then
        Error
          (Printf.sprintf "%s:\n  %s" file (String.concat "\n  " meta_problems))
      else
        match Obs_golden.diff ~rtol_for ~golden (fresh ()) with
        | [] -> Ok ()
        | mismatches ->
          let buf = Buffer.create 256 in
          let fmt = Format.formatter_of_buffer buf in
          Format.fprintf fmt "%s: %d mismatch(es)" file (List.length mismatches);
          List.iter
            (fun m -> Format.fprintf fmt "@\n  %a" Obs_golden.pp_mismatch m)
            mismatches;
          Format.pp_print_flush fmt ();
          Error (Buffer.contents buf))

let check ?cfg ~dir ~sizes name =
  check_file ~file:(path ~dir name) ~meta:(meta ~sizes name)
    ~rtol_for:default_rtol (fun () -> vector ?cfg ~sizes name)

let static_write ?cfg ~dir ~sizes () =
  let json =
    Obs_golden.to_json_string ~meta:(static_meta ~sizes)
      (static_vector ?cfg ~sizes ())
  in
  let oc = open_out_bin (path ~dir static_name) in
  output_string oc json;
  close_out oc

let static_check ?cfg ~dir ~sizes () =
  check_file ~file:(path ~dir static_name) ~meta:(static_meta ~sizes)
    ~rtol_for:static_rtol (fun () -> static_vector ?cfg ~sizes ())
