type metric =
  | Gain
  | Slice_size
  | Static_count

type column = {
  label : string;
  variant : string;
  threshold : float option;
  window : (int * int) option;
}

type spec = {
  tag : string;
  title : string;
  with_mean : bool;
  metric : metric;
  columns : column list;
  names : string list;
}

let apps = Catalog.spec_names @ Catalog.datacenter_names

let col ?threshold ?window label variant = { label; variant; threshold; window }

let fig4 =
  { tag = "fig4";
    title = "Figure 4: average load slice size (dynamic micro-ops)";
    with_mean = false;
    metric = Slice_size;
    columns = [ col "crisp" "crisp" ];
    names = apps }

let fig7 =
  { tag = "fig7";
    title = "Figure 7: IPC improvement over OOO (CRISP vs IBDA)";
    with_mean = true;
    metric = Gain;
    columns =
      [ col "CRISP" "crisp";
        col "IBDA-1K" "ibda-1k";
        col "IBDA-8K" "ibda-8k";
        col "IBDA-64K" "ibda-64k";
        col "IBDA-inf" "ibda-inf" ];
    names = apps }

let fig8 =
  { tag = "fig8";
    title = "Figure 8: load slices, branch slices, and their combination";
    with_mean = false;
    metric = Gain;
    columns =
      [ col "load" "crisp-load"; col "branch" "crisp-branch"; col "combined" "crisp" ];
    names = apps }

let fig9 =
  { tag = "fig9";
    title = "Figure 9: CRISP gain vs reservation-station / ROB size";
    with_mean = false;
    metric = Gain;
    columns =
      List.map
        (fun (rs, rob) ->
          col ~window:(rs, rob) (Printf.sprintf "%d/%d" rs rob) "crisp")
        [ (64, 180); (96, 224); (144, 336); (192, 448) ];
    names = apps }

let fig10 =
  { tag = "fig10";
    title = "Figure 10: sensitivity to the miss-contribution threshold T";
    with_mean = false;
    metric = Gain;
    columns =
      [ col ~threshold:0.05 "T=5%" "crisp";
        col ~threshold:0.01 "T=1%" "crisp";
        col ~threshold:0.002 "T=0.2%" "crisp" ];
    names = apps }

let fig11 =
  { tag = "fig11";
    title = "Figure 11: total static critical instructions";
    with_mean = false;
    metric = Static_count;
    columns = [ col "crisp" "crisp" ];
    names = apps }

let catalog = [ fig4; fig7; fig8; fig9; fig10; fig11 ]

let find tag = List.find_opt (fun s -> s.tag = tag) catalog

let metric_to_string = function
  | Gain -> "gain"
  | Slice_size -> "slice-size"
  | Static_count -> "static-count"

let metric_of_string = function
  | "gain" -> Ok Gain
  | "slice-size" -> Ok Slice_size
  | "static-count" -> Ok Static_count
  | other -> Error (Printf.sprintf "unknown metric %S" other)

let variant_of_column c =
  match (c.variant, c.threshold) with
  | "ooo", None -> Ok Runner.Ooo
  | "crisp", None -> Ok Runner.crisp_default
  | "crisp", Some t ->
    Ok (Runner.Crisp ({ Classifier.miss_contribution_min = t }, Tagger.default_options))
  | "crisp-load", None -> Ok (Runner.Crisp (Classifier.default, Tagger.load_slices_only))
  | "crisp-branch", None ->
    Ok (Runner.Crisp (Classifier.default, Tagger.branch_slices_only))
  | "ibda-1k", None -> Ok (Runner.Ibda Ibda.ist_1k)
  | "ibda-8k", None -> Ok (Runner.Ibda Ibda.ist_8k)
  | "ibda-64k", None -> Ok (Runner.Ibda Ibda.ist_64k)
  | "ibda-inf", None -> Ok (Runner.Ibda Ibda.ist_infinite)
  | ("ooo" | "crisp-load" | "crisp-branch" | "ibda-1k" | "ibda-8k" | "ibda-64k"
    | "ibda-inf"), Some _ ->
    Error (Printf.sprintf "variant %S does not take a threshold" c.variant)
  | other, _ -> Error (Printf.sprintf "unknown variant %S" other)

let needs_tagging = function
  | Slice_size | Static_count -> true
  | Gain -> false

let validate spec =
  let ( let* ) r f = Result.bind r f in
  let* () = if spec.names = [] then Error "grid has no workloads" else Ok () in
  let* () = if spec.columns = [] then Error "grid has no columns" else Ok () in
  let* () =
    match List.find_opt (fun n -> not (List.mem n Catalog.names)) spec.names with
    | Some n -> Error (Printf.sprintf "unknown workload %S" n)
    | None -> Ok ()
  in
  List.fold_left
    (fun acc c ->
      let* () = acc in
      let* v = variant_of_column c in
      match v with
      | Runner.Crisp _ -> Ok ()
      | Runner.Ooo | Runner.Ibda _ ->
        if needs_tagging spec.metric then
          Error
            (Printf.sprintf "metric %s needs a CRISP column, got %S"
               (metric_to_string spec.metric) c.variant)
        else Ok ())
    (Ok ()) spec.columns

let config_of_window = function
  | None -> Cpu_config.skylake
  | Some (rs, rob) -> Cpu_config.with_window ~rs ~rob Cpu_config.skylake

let cell_value ?sample ~eval_instrs ~train_instrs ~name ~metric column =
  let cfg = config_of_window column.window in
  let variant =
    match variant_of_column column with
    | Ok v -> v
    | Error msg -> invalid_arg ("Grid.cell_value: " ^ msg)
  in
  (* Sampled cells keep their own memo identity in [Runner], so they never
     reuse (or pollute) a full-fidelity cell. *)
  let evaluate variant = Runner.evaluate ?sample ~cfg ~eval_instrs ~train_instrs ~name variant in
  match metric with
  | Gain ->
    let ipc variant = Cpu_stats.ipc (evaluate variant).Runner.stats in
    let base = ipc Runner.Ooo in
    let v = ipc variant in
    (v /. base) -. 1.
  | Slice_size | Static_count -> (
    (* Tag-map metrics come from the FDO pass, which sampling leaves at
       full fidelity; under sampling the (cheap, sampled) evaluation
       still avoids the full timing run. *)
    match (evaluate variant).Runner.tagging with
    | None ->
      invalid_arg
        (Printf.sprintf "Grid.cell_value: metric %s needs a CRISP column"
           (metric_to_string metric))
    | Some tagging -> (
      match metric with
      | Slice_size -> Tagger.avg_load_slice_size tagging
      | Static_count -> float_of_int tagging.Tagger.static_count
      | Gain -> assert false))

(* The pointer-chasing giants dominate the wall clock of every grid.  In
   a nod to the paper's own topic, schedule the critical (long-pole)
   rows first so they never straggle behind a queue of cheap cells. *)
let long_poles = [ "mcf"; "xhpcg"; "omnetpp"; "moses" ]

let row_order names =
  let indexed = List.mapi (fun i n -> (i, n)) names in
  let heavy, light = List.partition (fun (_, n) -> List.mem n long_poles) indexed in
  List.map fst (heavy @ light)

let full_rows spec rows =
  if not spec.with_mean then rows
  else
    let means =
      List.init (List.length spec.columns) (fun i ->
          Report.mean (List.map (fun (_, vs) -> List.nth vs i) rows))
    in
    rows @ [ ("mean", means) ]

let render spec rows =
  let rows = full_rows spec rows in
  match spec.metric with
  | Gain ->
    Report.print_percent_table ~title:spec.title
      ~header:(List.map (fun c -> c.label) spec.columns)
      rows
  | Slice_size | Static_count ->
    Report.print_bars ~title:spec.title
      (List.map
         (fun (name, vs) ->
           match vs with [ v ] -> (name, v) | _ -> (name, Float.nan))
         rows)
