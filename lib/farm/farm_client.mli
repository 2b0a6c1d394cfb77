(** Client side of the simulation farm: connect to a [crisp_sim serve]
    daemon, submit grid requests, and reassemble the streamed cell
    frames into exactly the rows {!Experiments} would have produced
    locally — same {!Grid} spec, same floats (round-trip-precise on the
    wire), same [Float.nan] marker for degraded cells — so
    [Grid.render] prints a byte-identical figure.

    Failures split into two worlds:
    - {!Disconnected} / {!Overloaded} are {e transport} troubles —
      refused or timed-out connects, mid-stream disconnects, torn or
      corrupt frames, daemon sheds and drains.  All retryable: the
      daemon memoizes and journals cells by canonical key, so
      re-sending the same request after a reconnect streams
      already-finished cells from the memo and only computes what the
      lost connection interrupted.  {!run_grid_retrying} automates
      exactly that with {!Resil.Backoff}.
    - {!Farm_error} is a {e protocol} disagreement — undecodable or
      out-of-range frames, a daemon rejection, a wrong request id.
      Retrying cannot help; something is miswired. *)

type t

exception Farm_error of string
(** A protocol-level failure retrying cannot fix: an undecodable or
    unexpected response, a cell outside the grid, a summary for the
    wrong request, a structured admission rejection.  Never used for
    degraded cells — those are data. *)

exception Disconnected of string
(** The transport failed: connect refused or timed out, the daemon
    vanished mid-conversation, a frame was torn or corrupt, or the
    daemon announced it is draining.  Retryable by reconnecting. *)

exception Overloaded of int
(** The daemon shed this connection or request; the payload is its
    [retry_after_ms] backoff hint (0 = just reconnect).  Retryable. *)

val connect :
  ?connect_timeout:float -> ?io_timeout:float -> socket:string -> unit -> t
(** Open a connection.  [connect_timeout] (default 10s) bounds the
    non-blocking connect; [io_timeout] is remembered and applied to
    every frame sent or received on this connection — it bounds a
    frame's {e transfer}, never how long the daemon takes to produce
    the next one.
    @raise Disconnected when the daemon is not reachable in time. *)

val close : t -> unit

val ping : t -> unit
val stats : t -> Farm_protocol.farm_stats

val shutdown_daemon : t -> unit
(** Ask the daemon to exit cleanly (it finishes in-flight grids). *)

type grid_result = {
  rows : (string * float list) list;
      (** per-workload values in spec order; degraded cells are
          [Float.nan], exactly as the local runner reports them *)
  degraded : (string * string) list;  (** (["name/label"], reason) *)
  summary : Farm_protocol.summary;
}

val run_grid :
  t -> ?id:string -> ?sample:Sample_config.t -> spec:Grid.spec ->
  eval_instrs:int -> train_instrs:int -> unit -> grid_result
(** Submit the grid and block until its summary frame arrives.  With
    [sample] set, the daemon runs Gain cells as sampled (interval-CPI)
    simulations; sampled cells live under their own memo and journal
    keys, so mixed sampled/full traffic never collides.
    @raise Farm_error if a frame is out of range, any cell never
    arrives, the summary echoes a different request id, or the daemon
    rejects the request at admission (budget bounds, sample-config
    parse, grid-spec shape) — the rejection's reason is folded into
    the exception message.
    @raise Disconnected if the stream dies mid-conversation.
    @raise Overloaded if the daemon sheds the request. *)

(** Retry policy for {!run_grid_retrying}. *)
type retry = {
  attempts : int;  (** total attempts, including the first *)
  seed : int;  (** seed of the {!Resil.Backoff} jitter *)
  connect_timeout : float;
  io_timeout : float option;  (** per-frame deadline on each attempt *)
}

val default_retry : retry
(** 5 attempts, seed 0, 10s connect timeout, no per-frame deadline. *)

val run_grid_retrying :
  socket:string -> ?retry:retry -> ?id:string -> ?sample:Sample_config.t ->
  spec:Grid.spec -> eval_instrs:int -> train_instrs:int -> unit ->
  grid_result * int
(** Open a fresh connection per attempt and re-submit the {e same}
    request (same id) until it completes, sleeping the deterministic
    {!Resil.Backoff} schedule — or the server's [retry_after_ms] hint
    when that is longer — between attempts and recording each retry in
    {!Resil.Log}.  Because the daemon dedups cells by canonical key,
    the retries cost only the cells the lost connection interrupted;
    converged output is byte-identical to an undisturbed run.  Returns
    the result and the number of attempts used.
    @raise Farm_error on a protocol failure (immediately — retrying
    cannot fix it) or once every attempt has failed on transport. *)
