let stdout f =
  let file = Filename.temp_file "crisp_capture" ".out" in
  flush Stdlib.stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush Stdlib.stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in_noerr ic;
  Sys.remove file;
  contents
