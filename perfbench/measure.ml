(* Small statistics and process helpers shared by the workloads. *)

let now = Unix.gettimeofday

let sorted l = List.sort compare l

(* Linear interpolation between closest ranks (the "inclusive" method),
   so a percentile of few samples stays inside their range. *)
let quantile q = function
  | [] -> invalid_arg "Measure.quantile: no samples"
  | l ->
      let a = Array.of_list (sorted l) in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = truncate pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

let geomean = function
  | [] -> invalid_arg "Measure.geomean: no values"
  | l ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. l
        /. float_of_int (List.length l))

let sum l = List.fold_left ( +. ) 0. l

(* Peak resident set size of a process in MB, from /proc (VmHWM). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else find ()
      in
      let r = find () in
      close_in ic;
      r

(* [repeat_for ~seconds f] calls [f i] for i = 0, 1, ... until
   [seconds] have passed since the first call; always at least once. *)
let repeat_for ~seconds f =
  let t0 = now () in
  let rec go i =
    f i;
    if now () -. t0 < seconds then go (i + 1)
  in
  go 0

(* Set-up, three times over: the median seconds and the last result. *)
let set_up_three_times f =
  let runs =
    List.init 3 (fun _ ->
        let t0 = now () in
        let r = f () in
        (now () -. t0, r))
  in
  (median (List.map fst runs), snd (List.nth runs 2))

(* Failures are counted against the operations attempted; the first
   few are described on stderr. *)
let attempted = ref 0
let failed = ref 0

let attempt what f =
  incr attempted;
  match f () with
  | Ok () -> ()
  | Error msg ->
      incr failed;
      if !failed <= 10 then Printf.eprintf "perfbench: %s: %s\n%!" what msg
  | exception e ->
      incr failed;
      if !failed <= 10 then
        Printf.eprintf "perfbench: %s: %s\n%!" what (Printexc.to_string e)
