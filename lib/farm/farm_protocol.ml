module J = Obs_json

type grid_req = {
  id : string;
  tag : string;
  metric : Grid.metric;
  eval_instrs : int;
  train_instrs : int;
  names : string list;
  columns : Grid.column list;
  sample : string;
      (* canonical Sample_config string, "" = full-fidelity; omitted from
         the wire when empty so full-run frames are byte-identical to the
         pre-sampling protocol *)
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Run_grid of grid_req

type source = Cell_store.source =
  | Computed
  | Memo_hit
  | Journal_hit

type cell = {
  cell_id : string;
  row : int;
  col : int;
  name : string;
  label : string;
  source : source;
  outcome : (float, string) result;
}

type farm_stats = {
  memo : Exec.Memo.stats;
  pool : Exec.Pool.stats;
  journal_cells : int;
  requests_served : int;
  sampled_cells : int;  (* lifetime count of cells served from sampled runs *)
}

type summary = {
  req_id : string;
  cells : int;
  computed : int;
  memo_hits : int;
  journal_hits : int;
  degraded : int;
  sample : string;  (* the request's sample config, "" = full-fidelity *)
  farm : farm_stats;
}

type response =
  | Pong
  | Stats_reply of farm_stats
  | Shutting_down
  | Cell of cell
  | Summary of summary
  | Invalid_request of {
      req_id : string;
      reason : string;
      diags : string list;
    }
  | Overloaded of { retry_after_ms : int }
  | Draining
  | Error_reply of string

let source_to_string = function
  | Computed -> "computed"
  | Memo_hit -> "memo"
  | Journal_hit -> "journal"

let source_of_string = function
  | "computed" -> Some Computed
  | "memo" -> Some Memo_hit
  | "journal" -> Some Journal_hit
  | _ -> None

(* ----- encoding helpers ----- *)

(* Obs_json prints non-finite numbers as invalid JSON, so they travel as
   hex-float strings ("%h" round-trips every float bit-for-bit through
   float_of_string, including nan and infinity). *)
let json_of_float v =
  if Float.is_finite v then J.Num v else J.Str (Printf.sprintf "%h" v)

let json_of_column (c : Grid.column) =
  let base = [ ("label", J.Str c.label); ("variant", J.Str c.variant) ] in
  let base =
    match c.threshold with
    | None -> base
    | Some t -> base @ [ ("threshold", json_of_float t) ]
  in
  let base =
    match c.window with
    | None -> base
    | Some (rs, rob) -> base @ [ ("window", J.Arr [ J.num_int rs; J.num_int rob ]) ]
  in
  J.Obj base

let json_of_memo_stats (s : Exec.Memo.stats) =
  J.Obj
    [ ("hits", J.num_int s.hits);
      ("misses", J.num_int s.misses);
      ("dedups", J.num_int s.dedups);
      ("evictions", J.num_int s.evictions);
      ("entries", J.num_int s.entries) ]

let json_of_pool_stats (s : Exec.Pool.stats) =
  J.Obj
    [ ("workers", J.num_int s.workers);
      ("queued", J.num_int s.queued);
      ("running", J.num_int s.running);
      ("stolen", J.num_int s.stolen) ]

let json_of_farm_stats s =
  J.Obj
    [ ("memo", json_of_memo_stats s.memo);
      ("pool", json_of_pool_stats s.pool);
      ("journal_cells", J.num_int s.journal_cells);
      ("requests_served", J.num_int s.requests_served);
      ("sampled_cells", J.num_int s.sampled_cells) ]

(* A sample string travels only when non-empty, keeping full-fidelity
   frames byte-identical to the pre-sampling protocol (and old-daemon
   replies decodable). *)
let sample_field sample rest = if sample = "" then rest else ("sample", J.Str sample) :: rest

let encode_request req =
  let obj =
    match req with
    | Ping -> [ ("req", J.Str "ping") ]
    | Stats -> [ ("req", J.Str "stats") ]
    | Shutdown -> [ ("req", J.Str "shutdown") ]
    | Run_grid g ->
      [ ("req", J.Str "grid");
        ("id", J.Str g.id);
        ("tag", J.Str g.tag);
        ("metric", J.Str (Grid.metric_to_string g.metric));
        ("eval_instrs", J.num_int g.eval_instrs);
        ("train_instrs", J.num_int g.train_instrs);
        ("names", J.Arr (List.map (fun n -> J.Str n) g.names));
        ("columns", J.Arr (List.map json_of_column g.columns)) ]
      @ sample_field g.sample []
  in
  J.to_string (J.Obj obj)

let encode_response resp =
  let obj =
    match resp with
    | Pong -> [ ("resp", J.Str "pong") ]
    | Stats_reply s -> [ ("resp", J.Str "stats"); ("stats", json_of_farm_stats s) ]
    | Shutting_down -> [ ("resp", J.Str "shutting-down") ]
    | Cell c ->
      let outcome =
        match c.outcome with
        | Ok v -> ("ok", json_of_float v)
        | Error reason -> ("degraded", J.Str reason)
      in
      [ ("resp", J.Str "cell");
        ("cell", J.Str c.cell_id);
        ("row", J.num_int c.row);
        ("col", J.num_int c.col);
        ("name", J.Str c.name);
        ("label", J.Str c.label);
        ("source", J.Str (source_to_string c.source));
        outcome ]
    | Summary s ->
      [ ("resp", J.Str "summary");
        ("id", J.Str s.req_id);
        ("cells", J.num_int s.cells);
        ("computed", J.num_int s.computed);
        ("memo_hits", J.num_int s.memo_hits);
        ("journal_hits", J.num_int s.journal_hits);
        ("degraded", J.num_int s.degraded) ]
      @ sample_field s.sample [ ("stats", json_of_farm_stats s.farm) ]
    | Invalid_request { req_id; reason; diags } ->
      [ ("resp", J.Str "invalid");
        ("id", J.Str req_id);
        ("reason", J.Str reason);
        ("diags", J.Arr (List.map (fun d -> J.Str d) diags)) ]
    | Overloaded { retry_after_ms } ->
      [ ("resp", J.Str "overloaded"); ("retry_after_ms", J.num_int retry_after_ms) ]
    | Draining -> [ ("resp", J.Str "draining") ]
    | Error_reply msg -> [ ("resp", J.Str "error"); ("message", J.Str msg) ]
  in
  J.to_string (J.Obj obj)

(* ----- decoding helpers ----- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> bad "missing field %S" name

let opt_field name j = J.member name j

let str ~what = function
  | J.Str s -> s
  | _ -> bad "field %S must be a string" what

let int ~what = function
  | J.Num v when Float.is_integer v && Float.abs v <= 1e15 -> int_of_float v
  | _ -> bad "field %S must be an integer" what

let flt ~what = function
  | J.Num v -> v
  | J.Str s -> (
    match float_of_string_opt s with
    | Some v -> v
    | None -> bad "field %S holds an unparsable float %S" what s)
  | _ -> bad "field %S must be a number" what

let arr ~what = function
  | J.Arr xs -> xs
  | _ -> bad "field %S must be an array" what

let column_of_json j =
  let label = str ~what:"label" (field "label" j) in
  let variant = str ~what:"variant" (field "variant" j) in
  let threshold = Option.map (flt ~what:"threshold") (opt_field "threshold" j) in
  let window =
    match opt_field "window" j with
    | None -> None
    | Some w -> (
      match arr ~what:"window" w with
      | [ rs; rob ] -> Some (int ~what:"window.rs" rs, int ~what:"window.rob" rob)
      | _ -> bad "field \"window\" must be a [rs, rob] pair")
  in
  { Grid.label; variant; threshold; window }

let memo_stats_of_json j : Exec.Memo.stats =
  { hits = int ~what:"memo.hits" (field "hits" j);
    misses = int ~what:"memo.misses" (field "misses" j);
    dedups = int ~what:"memo.dedups" (field "dedups" j);
    evictions = int ~what:"memo.evictions" (field "evictions" j);
    entries = int ~what:"memo.entries" (field "entries" j) }

let pool_stats_of_json j : Exec.Pool.stats =
  { workers = int ~what:"pool.workers" (field "workers" j);
    queued = int ~what:"pool.queued" (field "queued" j);
    running = int ~what:"pool.running" (field "running" j);
    stolen = int ~what:"pool.stolen" (field "stolen" j) }

let farm_stats_of_json j =
  { memo = memo_stats_of_json (field "memo" j);
    pool = pool_stats_of_json (field "pool" j);
    journal_cells = int ~what:"journal_cells" (field "journal_cells" j);
    requests_served = int ~what:"requests_served" (field "requests_served" j);
    sampled_cells =
      (match opt_field "sampled_cells" j with
      | Some v -> int ~what:"sampled_cells" v
      | None -> 0) }

let sample_of_json j =
  match opt_field "sample" j with
  | Some v -> str ~what:"sample" v
  | None -> ""

let parse ~what payload k =
  match J.parse payload with
  | j -> ( try Ok (k j) with Bad msg -> Error (what ^ ": " ^ msg))
  | exception J.Parse_error msg -> Error (what ^ ": malformed JSON: " ^ msg)

let decode_request payload =
  parse ~what:"request" payload (fun j ->
      match str ~what:"req" (field "req" j) with
      | "ping" -> Ping
      | "stats" -> Stats
      | "shutdown" -> Shutdown
      | "grid" ->
        let metric_name = str ~what:"metric" (field "metric" j) in
        let metric =
          match Grid.metric_of_string metric_name with
          | Ok m -> m
          | Error msg -> bad "%s" msg
        in
        Run_grid
          { id = str ~what:"id" (field "id" j);
            tag = str ~what:"tag" (field "tag" j);
            metric;
            eval_instrs = int ~what:"eval_instrs" (field "eval_instrs" j);
            train_instrs = int ~what:"train_instrs" (field "train_instrs" j);
            names =
              List.map (str ~what:"names[]") (arr ~what:"names" (field "names" j));
            columns =
              List.map column_of_json (arr ~what:"columns" (field "columns" j));
            sample = sample_of_json j }
      | other -> bad "unknown request kind %S" other)

let decode_response payload =
  parse ~what:"response" payload (fun j ->
      match str ~what:"resp" (field "resp" j) with
      | "pong" -> Pong
      | "stats" -> Stats_reply (farm_stats_of_json (field "stats" j))
      | "shutting-down" -> Shutting_down
      | "cell" ->
        let source_name = str ~what:"source" (field "source" j) in
        let source =
          match source_of_string source_name with
          | Some s -> s
          | None -> bad "unknown cell source %S" source_name
        in
        let outcome =
          match (opt_field "ok" j, opt_field "degraded" j) with
          | Some v, None -> Ok (flt ~what:"ok" v)
          | None, Some r -> Error (str ~what:"degraded" r)
          | _ -> bad "cell frame must carry exactly one of \"ok\"/\"degraded\""
        in
        Cell
          { cell_id = str ~what:"cell" (field "cell" j);
            row = int ~what:"row" (field "row" j);
            col = int ~what:"col" (field "col" j);
            name = str ~what:"name" (field "name" j);
            label = str ~what:"label" (field "label" j);
            source;
            outcome }
      | "summary" ->
        Summary
          { req_id = str ~what:"id" (field "id" j);
            cells = int ~what:"cells" (field "cells" j);
            computed = int ~what:"computed" (field "computed" j);
            memo_hits = int ~what:"memo_hits" (field "memo_hits" j);
            journal_hits = int ~what:"journal_hits" (field "journal_hits" j);
            degraded = int ~what:"degraded" (field "degraded" j);
            sample = sample_of_json j;
            farm = farm_stats_of_json (field "stats" j) }
      | "invalid" ->
        Invalid_request
          { req_id = str ~what:"id" (field "id" j);
            reason = str ~what:"reason" (field "reason" j);
            diags =
              List.map (str ~what:"diags[]") (arr ~what:"diags" (field "diags" j)) }
      | "overloaded" ->
        let ms = int ~what:"retry_after_ms" (field "retry_after_ms" j) in
        if ms < 0 then bad "field \"retry_after_ms\" must be non-negative";
        Overloaded { retry_after_ms = ms }
      | "draining" -> Draining
      | "error" -> Error_reply (str ~what:"message" (field "message" j))
      | other -> bad "unknown response kind %S" other)
