let fetch = 0
let dispatch = 1
let select = 2
let issue = 3
let mshr_retry = 4
let complete = 5
let retire = 6
let redirect_mispredict = 7
let redirect_btb_miss = 8
let redirect_ras = 9
let l1d_miss_llc = 10
let l1d_miss_mem = 11
let l1i_miss = 12
let prefetch = 13

let names =
  [| "fetch"; "dispatch"; "select"; "issue"; "mshr_retry"; "complete"; "retire";
     "redirect_mispredict"; "redirect_btb_miss"; "redirect_ras"; "l1d_miss_llc";
     "l1d_miss_mem"; "l1i_miss"; "prefetch" |]

let kinds = Array.length names

let name k =
  if k >= 0 && k < Array.length names then names.(k)
  else Printf.sprintf "unknown_%d" k
