module P = Farm_protocol

type t = {
  fd : Unix.file_descr;
  io_timeout : float option;
  mutable req_counter : int;
}

exception Farm_error of string
exception Disconnected of string
exception Overloaded of int

let fail fmt = Printf.ksprintf (fun s -> raise (Farm_error s)) fmt
let lost fmt = Printf.ksprintf (fun s -> raise (Disconnected s)) fmt

let connect ?(connect_timeout = 10.) ?io_timeout ~socket () =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  let give_up fmt =
    Printf.ksprintf
      (fun s ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise (Disconnected s))
      fmt
  in
  let unreachable e =
    give_up "cannot reach daemon at %s: %s (is `crisp_sim serve' running?)" socket
      (Unix.error_message e)
  in
  Unix.set_nonblock fd;
  (match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> ()
  | exception Unix.Unix_error ((EINPROGRESS | EAGAIN | EWOULDBLOCK), _, _) -> (
    (* Non-blocking connect in flight (or the listen backlog is full):
       wait for writability under the connect deadline, then read the
       verdict from SO_ERROR. *)
    match Unix.select [] [ fd ] [] connect_timeout with
    | _, _ :: _, _ -> (
      match Unix.getsockopt_error fd with
      | None -> ()
      | Some e -> unreachable e)
    | _ ->
      give_up "timed out connecting to %s after %gs" socket connect_timeout)
  | exception Unix.Unix_error (e, _, _) -> unreachable e);
  { fd; io_timeout; req_counter = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* A failed send usually means the daemon hung up on purpose — and its
   terminating verdict (Overloaded shed, Draining) may already sit in
   our receive buffer, written just before the close that broke our
   write.  Prefer that verdict over a bare EPIPE: it carries the backoff
   hint and keeps the shed path deterministic for clients that lose the
   write/close race. *)
let send_failed t cause =
  (match
     Farm_frame.read_fd ~idle_timeout:0.25 ~io_timeout:0.25 t.fd
   with
  | `Frame payload -> (
    match P.decode_response payload with
    | Ok (P.Overloaded { retry_after_ms }) -> raise (Overloaded retry_after_ms)
    | Ok P.Draining -> lost "daemon is draining; reconnect later"
    | Ok _ | Error _ -> ())
  | `Eof | `Idle_timeout | `Timeout | `Abort -> ()
  | exception Farm_frame.Frame_error _ -> ()
  | exception Unix.Unix_error _ -> ());
  lost "connection lost while sending: %s" cause

let send t req =
  try Farm_frame.write_fd ?io_timeout:t.io_timeout t.fd (P.encode_request req)
  with
  | Farm_frame.Io_timeout msg -> lost "send timed out: %s" msg
  | Unix.Unix_error (e, _, _) -> send_failed t (Unix.error_message e)
  | Sys_error msg -> send_failed t msg

(* Waiting for the daemon's *next* frame is unbounded — cells take as
   long as they take to simulate — but once a frame has started it must
   complete within the io deadline: a mid-frame stall is a sick
   transport, not a slow simulation. *)
let recv t =
  match Farm_frame.read_fd ?io_timeout:t.io_timeout t.fd with
  | `Eof -> lost "daemon closed the connection mid-conversation"
  | `Timeout ->
    lost "response frame stalled past the %gs I/O deadline"
      (Option.value t.io_timeout ~default:0.)
  | `Idle_timeout | `Abort -> assert false (* no idle deadline, no poll *)
  | `Frame payload -> (
    match P.decode_response payload with
    | Ok (P.Overloaded { retry_after_ms }) ->
      (* Connection-terminating shed frame; surface the backoff hint. *)
      raise (Overloaded retry_after_ms)
    | Ok P.Draining -> lost "daemon is draining; reconnect later"
    | Ok resp -> resp
    | Error msg -> fail "undecodable response: %s" msg)
  | exception Farm_frame.Frame_error msg ->
    (* Torn or corrupt framing is transport damage, not a protocol
       disagreement — retryable like any disconnect. *)
    lost "framing error: %s" msg
  | exception Unix.Unix_error (e, _, _) ->
    lost "connection lost: %s" (Unix.error_message e)

let describe = function
  | P.Pong -> "pong"
  | P.Stats_reply _ -> "stats"
  | P.Shutting_down -> "shutting-down"
  | P.Cell _ -> "cell"
  | P.Summary _ -> "summary"
  | P.Invalid_request { reason; _ } -> Printf.sprintf "invalid-request (%s)" reason
  | P.Overloaded { retry_after_ms } ->
    Printf.sprintf "overloaded (retry after %dms)" retry_after_ms
  | P.Draining -> "draining"
  | P.Error_reply msg -> Printf.sprintf "error (%s)" msg

let ping t =
  send t P.Ping;
  match recv t with
  | P.Pong -> ()
  | r -> fail "expected pong, got %s" (describe r)

let stats t =
  send t P.Stats;
  match recv t with
  | P.Stats_reply s -> s
  | r -> fail "expected stats, got %s" (describe r)

let shutdown_daemon t =
  send t P.Shutdown;
  match recv t with
  | P.Shutting_down -> ()
  | r -> fail "expected shutting-down, got %s" (describe r)

type grid_result = {
  rows : (string * float list) list;
  degraded : (string * string) list;
  summary : P.summary;
}

let contains ~sub s =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run_grid t ?id ?sample ~(spec : Grid.spec) ~eval_instrs ~train_instrs () =
  t.req_counter <- t.req_counter + 1;
  let id =
    match id with
    | Some id -> id
    | None -> Printf.sprintf "%s-%d-%d" spec.tag (Unix.getpid ()) t.req_counter
  in
  let sample =
    match sample with None -> "" | Some s -> Sample_config.to_string s
  in
  send t
    (P.Run_grid
       { id;
         tag = spec.tag;
         metric = spec.metric;
         eval_instrs;
         train_instrs;
         names = spec.names;
         columns = spec.columns;
         sample });
  let nrows = List.length spec.names and ncols = List.length spec.columns in
  let matrix = Array.make_matrix nrows ncols Float.nan in
  let filled = Array.make_matrix nrows ncols false in
  let degraded = ref [] in
  let rec stream () =
    match recv t with
    | P.Cell c ->
      if c.row < 0 || c.row >= nrows || c.col < 0 || c.col >= ncols then
        fail "cell frame (%d,%d) outside the %dx%d grid" c.row c.col nrows ncols;
      (match c.outcome with
      | Ok v -> matrix.(c.row).(c.col) <- v
      | Error reason ->
        (* Same marker the local runner uses, so rendering matches. *)
        matrix.(c.row).(c.col) <- Float.nan;
        degraded := (c.name ^ "/" ^ c.label, reason) :: !degraded);
      filled.(c.row).(c.col) <- true;
      stream ()
    | P.Summary s ->
      if s.req_id <> id then
        fail "summary echoes request %S, expected %S" s.req_id id;
      Array.iteri
        (fun r row ->
          Array.iteri
            (fun c ok ->
              if not ok then fail "daemon never sent cell (%d,%d)" r c)
            row)
        filled;
      s
    | P.Invalid_request { req_id; reason } ->
      if req_id <> id then
        fail "rejection echoes request %S, expected %S" req_id id;
      fail "daemon rejected the request: %s" reason
    | P.Error_reply msg when contains ~sub:"framing error" msg ->
      (* The daemon received garbage: the wire mangled our bytes on the
         way up.  Transport damage, so retryable. *)
      lost "daemon reported transport corruption: %s" msg
    | P.Error_reply msg -> fail "daemon: %s" msg
    | r -> fail "expected cell or summary, got %s" (describe r)
  in
  let summary = stream () in
  { rows = List.mapi (fun r name -> (name, Array.to_list matrix.(r))) spec.names;
    degraded = List.rev !degraded;
    summary }

(* ----- reconnect-and-resume ----- *)

type retry = {
  attempts : int;
  seed : int;
  connect_timeout : float;
  io_timeout : float option;
}

let default_retry =
  { attempts = 5;
    seed = 0;
    connect_timeout = 10.;
    io_timeout = None }

let cause_of = function
  | Disconnected msg -> msg
  | Overloaded ms -> Printf.sprintf "daemon overloaded (retry after %dms)" ms
  | e -> Printexc.to_string e

let run_grid_retrying ~socket ?(retry = default_retry) ?id ?sample
    ~(spec : Grid.spec) ~eval_instrs ~train_instrs () =
  (* One id for every attempt: the daemon memoizes and journals cells by
     canonical key, so a re-sent request streams already-finished cells
     from the memo — retry-to-convergence is exactly-once by
     construction, and the stable id keeps the summaries attributable. *)
  let id =
    match id with
    | Some id -> id
    | None -> Printf.sprintf "%s-%d-r" spec.tag (Unix.getpid ())
  in
  let rec attempt k =
    let outcome =
      match
        connect ~connect_timeout:retry.connect_timeout
          ?io_timeout:retry.io_timeout ~socket ()
      with
      | exception (Disconnected _ as e) -> Error (e, None)
      | t ->
        Fun.protect
          ~finally:(fun () -> close t)
          (fun () ->
            match run_grid t ~id ?sample ~spec ~eval_instrs ~train_instrs () with
            | r -> Ok r
            | exception (Disconnected _ as e) -> Error (e, None)
            | exception (Overloaded ms as e) -> Error (e, Some ms))
    in
    match outcome with
    | Ok r -> (r, k + 1)
    | Error (e, hint) ->
      if k + 1 >= retry.attempts then
        fail "grid %s (%s) failed after %d attempt(s): %s" spec.tag id (k + 1)
          (cause_of e)
      else begin
        let nominal = Resil.Backoff.delay ~seed:retry.seed ~ident:id ~attempt:k in
        (* Respect the server's shed hint when it outlasts our own
           schedule. *)
        let delay =
          match hint with
          | Some ms -> Float.max nominal (float_of_int ms /. 1000.)
          | None -> nominal
        in
        Resil.Log.record
          (Resil.Log.Retry
             { ident = id; attempt = k + 1; delay; cause = cause_of e });
        if delay > 0. then Unix.sleepf delay;
        attempt (k + 1)
      end
  in
  attempt 0
