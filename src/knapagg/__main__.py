"""Run the command line front end: python -m knapagg."""

from .cli import console

if __name__ == "__main__":
    console()
