(* Shared helpers for the experiment harness. *)

let cell = Parqo.Tableau.cell_float
let celli = Parqo.Tableau.cell_int

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let env_for ?(nodes = 4) ?machine catalog query =
  let machine =
    match machine with
    | Some m -> m
    | None -> Parqo.Machine.shared_nothing ~nodes ()
  in
  Parqo.Env.create ~machine ~catalog ~query ()

let shape_env ?nodes shape n =
  let catalog, query =
    Parqo.Query_gen.generate (Parqo.Query_gen.default_spec shape n)
  in
  env_for ?nodes catalog query

(* PARQO_SMOKE=1 shrinks an experiment to a CI gate. *)
let smoke = Sys.getenv_opt "PARQO_SMOKE" <> None

(* Write an experiment's results file [path] with [write].  A smoke run
   prints its tables and checks its gates but writes nothing: its shrunk
   figures must not replace the committed full-run results. *)
let write_results path ~what write =
  if smoke then Printf.printf "smoke mode: %s not written\n\n" path
  else begin
    write path;
    Printf.printf "wrote %s (%s)\n\n" path what
  end

(* The checkout a results file was measured at: its git revision, with
   "-dirty" when tracked files differ from it, or "unknown" outside a
   git checkout. *)
let git_rev () =
  let rev =
    match Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> None
    | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)
  in
  match rev with
  | None -> "unknown"
  | Some rev ->
    if Sys.command "git diff --quiet HEAD 2>/dev/null" = 1 then rev ^ "-dirty"
    else rev

(* A results file's machine record, the fields perfbench's run record
   names the host by: cores, OCaml version and git revision. *)
let machine_json () =
  Printf.sprintf "{\"cores\": %d, \"ocaml_version\": %S, \"git_rev\": %S}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ())

let header title lines =
  Printf.printf "%s\n" (String.make 78 '=');
  Printf.printf "%s\n" title;
  List.iter (fun l -> Printf.printf "  %s\n" l) lines;
  Printf.printf "%s\n\n" (String.make 78 '=')
