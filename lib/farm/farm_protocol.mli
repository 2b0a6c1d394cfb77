(** Wire protocol of the simulation farm.

    One frame ({!Farm_frame}) carries one JSON-encoded message.  A client
    connection is synchronous: it sends one {!request} and reads
    responses until the terminating frame for that request ([Pong],
    [Stats_reply], [Shutting_down], [Summary], [Invalid_request],
    [Overloaded], [Draining] or [Error_reply]); a
    [Run_grid] request streams one [Cell] frame per grid cell in
    row-major order — flushed as rows settle, while later cells are
    still simulating — before its [Summary].

    The payload grammar is the {!Obs_json} subset.  Floats ride as JSON
    numbers printed with round-trip precision; non-finite values (a
    degraded cell's [nan] never travels — it is an [Error _] outcome —
    but thresholds are caller data) are encoded as hex-float strings so
    the wire never carries invalid JSON.

    Decoders are total: any malformed, truncated-at-the-JSON-level or
    semantically invalid payload yields [Error msg], never a partially
    populated message. *)

type grid_req = {
  id : string;  (** client-chosen request id, echoed in the summary *)
  tag : string;  (** grid name, e.g. ["fig7"]; need not be in {!Grid.catalog} *)
  metric : Grid.metric;
  eval_instrs : int;
  train_instrs : int;
  names : string list;  (** row order of the reply *)
  columns : Grid.column list;  (** column order of the reply *)
  sample : string;
      (** canonical {!Sample_config.to_string} form to run the grid's
          Gain cells sampled, or [""] for full fidelity.  Validated by
          the admission gate; omitted from the wire when empty, so
          full-run requests are byte-identical to the pre-sampling
          protocol. *)
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Run_grid of grid_req

(** How the daemon obtained a cell value — the exactly-once accounting
    clients assert on. *)
type source = Cell_store.source =
  | Computed  (** simulated by this request *)
  | Memo_hit  (** deduplicated against a live or completed in-process cell *)
  | Journal_hit  (** restored from the on-disk cell journal *)

type cell = {
  cell_id : string;  (** canonical cell key (grid-tag independent) *)
  row : int;  (** index into {!grid_req.names} *)
  col : int;  (** index into {!grid_req.columns} *)
  name : string;
  label : string;
  source : source;
  outcome : (float, string) result;  (** value, or degradation reason *)
}

type farm_stats = {
  memo : Exec.Memo.stats;  (** the farm's cell memo, not the runner's *)
  pool : Exec.Pool.stats;
  journal_cells : int;  (** validated entries in the cell journal *)
  requests_served : int;  (** grid requests completed since daemon start *)
  sampled_cells : int;
      (** cells served from sampled (interval-CPI) runs since daemon
          start; decodes as [0] from pre-sampling daemons *)
}

type summary = {
  req_id : string;  (** echo of {!grid_req.id} *)
  cells : int;
  computed : int;
  memo_hits : int;
  journal_hits : int;
  degraded : int;
  sample : string;  (** echo of {!grid_req.sample}; [""] = full fidelity *)
  farm : farm_stats;
}

type response =
  | Pong
  | Stats_reply of farm_stats
  | Shutting_down
  | Cell of cell
  | Summary of summary
  | Invalid_request of {
      req_id : string;  (** echo of {!grid_req.id} *)
      reason : string;  (** one-line category, e.g. lint failure *)
      diags : string list;  (** rendered per-finding detail, possibly empty *)
    }
      (** Structured rejection of a {!Run_grid} request that failed the
          daemon's admission checks (budget sanity, {!Grid.validate},
          per-workload crisp-check lint) {e before} any cell was
          scheduled.  Terminates the request like [Summary] does. *)
  | Overloaded of { retry_after_ms : int }
      (** The daemon shed this connection or request: the connection cap
          is full, the pool's queue is too deep, or this connection
          exhausted its request budget.  A {e connection-terminating}
          frame — the server closes the socket right after sending it.
          [retry_after_ms] is the server's backoff hint; [0] means
          "reconnect immediately" (budget recycling, not overload). *)
  | Draining
      (** The daemon is draining (SIGTERM / client-requested shutdown):
          it will finish streaming in-flight grids but accepts no new
          requests.  Connection-terminating, like [Overloaded]. *)
  | Error_reply of string

val source_to_string : source -> string

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
