exception Frame_error of string
exception Io_timeout of string

let fail fmt = Printf.ksprintf (fun s -> raise (Frame_error s)) fmt
let max_frame_bytes = 1 lsl 20

let check_len n =
  if n < 0 || n > max_frame_bytes then
    fail "declared payload length %d outside [0, %d]" n max_frame_bytes

let encode payload =
  let n = String.length payload in
  check_len n;
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let decode buf ~pos =
  let avail = String.length buf - pos in
  if avail < 4 then None
  else begin
    let n = Int32.to_int (String.get_int32_be buf pos) in
    check_len n;
    if avail < 4 + n then None else Some (String.sub buf (pos + 4) n, pos + 4 + n)
  end

(* ----- deadline-guarded file-descriptor I/O ----- *)

(* Select slices are capped so [poll] (the server's drain flag) is
   observed promptly even on an otherwise silent connection. *)
let poll_tick = 0.05

type read_result =
  [ `Frame of string | `Eof | `Idle_timeout | `Timeout | `Abort ]

(* Wait for [fd] to become ready in [mode] before the absolute [deadline]
   (None = forever), checking [poll] between slices. *)
let wait_fd fd mode ~deadline ~poll =
  let rec go () =
    if poll () then `Abort
    else begin
      let slice =
        match deadline with
        | None -> poll_tick
        | Some d -> Float.min poll_tick (d -. Unix.gettimeofday ())
      in
      if slice <= 0. then `Expired
      else
        let reads, writes =
          match mode with `Read -> ([ fd ], []) | `Write -> ([], [ fd ])
        in
        match Unix.select reads writes [] slice with
        | [], [], _ -> go ()
        | _ -> `Ready
        | exception Unix.Unix_error (EINTR, _, _) -> go ()
    end
  in
  go ()

let no_poll () = false

(* Read exactly [len] bytes into [b] at [off].  [total] counts frame
   bytes already consumed before this call: a peer vanishing at frame
   byte 0 is a clean [`Eof]; anywhere later it is a torn frame. *)
let rec fill fd b off len ~deadline ~poll ~expired ~total =
  if len = 0 then `Done
  else
    match wait_fd fd `Read ~deadline ~poll with
    | `Abort -> `Abort
    | `Expired -> expired
    | `Ready -> (
      match Unix.read fd b off len with
      | 0 ->
        if total + off = 0 then `Eof
        else fail "stream truncated inside frame (%d bytes short)" len
      | n -> fill fd b (off + n) (len - n) ~deadline ~poll ~expired ~total
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        fill fd b off len ~deadline ~poll ~expired ~total
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
        if total + off = 0 then `Eof
        else fail "connection reset inside frame (%d bytes short)" len)

let abs_deadline = Option.map (fun s -> Unix.gettimeofday () +. s)

let read_fd ?idle_timeout ?io_timeout ?(poll = no_poll) fd : read_result =
  let header = Bytes.create 4 in
  (* The frame's first byte is awaited under the idle deadline with the
     caller's poll active; once a frame has started, the rest of it —
     header remainder plus payload — must arrive before one io deadline,
     and the frame is read to completion or evicted, never abandoned
     half-consumed. *)
  match
    fill fd header 0 1 ~deadline:(abs_deadline idle_timeout) ~poll
      ~expired:`Idle_timeout ~total:0
  with
  | `Abort -> `Abort
  | `Idle_timeout -> `Idle_timeout
  | `Eof -> `Eof
  | `Timeout -> assert false (* [expired] is [`Idle_timeout] here *)
  | `Done -> (
    let deadline = abs_deadline io_timeout in
    match
      fill fd header 1 3 ~deadline ~poll:no_poll ~expired:`Timeout ~total:1
    with
    | `Abort | `Eof | `Idle_timeout -> assert false
    | `Timeout -> `Timeout
    | `Done -> (
      let n = Int32.to_int (Bytes.get_int32_be header 0) in
      check_len n;
      let payload = Bytes.create n in
      match
        fill fd payload 0 n ~deadline ~poll:no_poll ~expired:`Timeout ~total:4
      with
      | `Abort | `Eof | `Idle_timeout -> assert false
      | `Timeout -> `Timeout
      | `Done -> `Frame (Bytes.unsafe_to_string payload)))

let write_raw_fd ?io_timeout fd buf =
  let b = Bytes.unsafe_of_string buf in
  let len = Bytes.length b in
  let deadline = abs_deadline io_timeout in
  let rec go off =
    if off < len then
      match wait_fd fd `Write ~deadline ~poll:no_poll with
      | `Abort -> assert false (* no poll installed *)
      | `Expired ->
        raise
          (Io_timeout
             (Printf.sprintf
                "peer did not drain %d of %d frame bytes before the write \
                 deadline"
                (len - off) len))
      | `Ready -> (
        match Unix.write fd b off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          go off)
  in
  go 0

let write_fd ?io_timeout fd payload =
  (* [encode] validates the length first: an oversize outgoing frame is
     a loud [Frame_error] before any bytes are written. *)
  write_raw_fd ?io_timeout fd (encode payload)
