(* The installed CLI surface, driven as a subprocess (the binary is a
   declared test dependency, built into ../bin).  Bad flag values must
   exit nonzero with the list of valid choices and no backtrace; the
   replan policy must run end to end, and bushy search must report its
   statistics. *)

let t name f = Alcotest.test_case name `Quick f

let cli = Filename.concat Filename.parent_dir_name "bin/parqo_cli.exe"

let run_cli args =
  let out = Filename.temp_file "parqo_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>&1" (Filename.quote cli) args
         (Filename.quote out))
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let skip_unless_built k = if Sys.file_exists cli then k () else ()

let bad_recovery_listed () =
  skip_unless_built @@ fun () ->
  let code, text =
    run_cli "simulate --shape chain -n 3 --recovery bogus"
  in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("lists " ^ name) true (contains text name))
    Parqo.Recovery.valid_names;
  Alcotest.(check bool) "no backtrace" false (contains text "Raised at")

let bad_fault_rate_rejected () =
  skip_unless_built @@ fun () ->
  let code, text = run_cli "simulate --shape chain -n 3 --fault-rate 1.5" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  Alcotest.(check bool) "explains the range" true (contains text "[0, 1)");
  Alcotest.(check bool) "no backtrace" false (contains text "Raised at")

let replan_policy_runs () =
  skip_unless_built @@ fun () ->
  let code, text =
    run_cli
      "simulate --shape chain -n 3 --fault-rate 0.3 --recovery replan \
       --fault-seed 1"
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports makespan" true (contains text "makespan");
  Alcotest.(check bool) "reports replans" true (contains text "replans")

let serve_runs () =
  skip_unless_built @@ fun () ->
  let code, text =
    run_cli
      "serve --tables 4 --pool 6 --requests 15 --rate 200 --deadline 50 \
       --chaos"
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports dispositions" true (contains text "planned");
  Alcotest.(check bool) "reports latency" true (contains text "p99");
  Alcotest.(check bool) "chaos noted" true (contains text "chaos on")

let bad_arrival_listed () =
  skip_unless_built @@ fun () ->
  let code, text = run_cli "serve --requests 5 --arrival bogus" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("lists " ^ name) true (contains text name))
    [ "uniform"; "poisson"; "burst" ];
  Alcotest.(check bool) "no backtrace" false (contains text "Raised at")

let bad_deadline_rejected () =
  skip_unless_built @@ fun () ->
  let code, text = run_cli "serve --requests 5 --deadline=-3" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  Alcotest.(check bool) "explains the constraint" true (contains text "> 0");
  Alcotest.(check bool) "no backtrace" false (contains text "Raised at")

(* Bushy search reports what the left-deep search does: one line per
   level of both phases, and the allocation it measured *)
let bushy_stats_reported () =
  skip_unless_built @@ fun () ->
  let code, text =
    run_cli "optimize --shape chain -n 4 --bushy --stats --search-domains 2"
  in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter
    (fun level ->
      Alcotest.(check bool) ("reports " ^ level) true (contains text level))
    [ "level=2"; "level=3"; "level=4" ];
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun name ->
      match List.find_opt (String.starts_with ~prefix:name) lines with
      | Some line ->
        Alcotest.(check bool)
          (name ^ " minor words measured")
          false
          (contains line "minor-words=0 ")
      | None -> Alcotest.failf "no %s line" name)
    [ "search:"; "work phase:" ]

let suite =
  ( "cli",
    [
      t "bad recovery lists choices" bad_recovery_listed;
      t "bad fault rate rejected" bad_fault_rate_rejected;
      t "replan policy runs" replan_policy_runs;
      t "serve runs end to end" serve_runs;
      t "bad arrival process lists choices" bad_arrival_listed;
      t "bad deadline rejected" bad_deadline_rejected;
      t "bushy search reports its stats" bushy_stats_reported;
    ] )
